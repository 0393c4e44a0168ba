package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"activepages/internal/serve"
)

func TestPopulationAndMixReproducible(t *testing.T) {
	pop := population()
	if !reflect.DeepEqual(pop, population()) {
		t.Fatal("population differs between calls")
	}
	seen := map[string]bool{}
	for _, r := range pop {
		j, _ := json.Marshal(r)
		if seen[string(j)] {
			t.Fatalf("duplicate spec %s: every cold submission must miss", j)
		}
		seen[string(j)] = true
	}

	o := coldOrder(7, 0, len(pop))
	if !reflect.DeepEqual(o, coldOrder(7, 0, len(pop))) {
		t.Fatal("cold order differs for the same seed")
	}
	if reflect.DeepEqual(o, coldOrder(8, 0, len(pop))) {
		t.Fatal("cold order does not depend on the seed")
	}
	if reflect.DeepEqual(o, coldOrder(7, 1, len(pop))) {
		t.Fatal("cold order does not change between repetitions")
	}
	sorted := append([]int(nil), o...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("cold order %v is not a permutation", o)
		}
	}

	m1 := zipfMix(7, len(pop), 20000)
	if !reflect.DeepEqual(m1, zipfMix(7, len(pop), 20000)) {
		t.Fatal("Zipf mix differs for the same seed")
	}
	m2 := zipfMix(8, len(pop), 20000)
	if reflect.DeepEqual(m1, m2) {
		t.Fatal("Zipf mix does not depend on the seed")
	}
	count := func(mix []int) []int {
		c := make([]int, len(pop))
		for _, i := range mix {
			if i < 0 || i >= len(pop) {
				t.Fatalf("mix index %d outside population of %d", i, len(pop))
			}
			c[i]++
		}
		return c
	}
	c1, c2 := count(m1), count(m2)
	top := 0
	for i := range c1 {
		if c1[i] > c1[top] {
			top = i
		}
	}
	// Popularity is fixed, in population order: every seed favours the
	// first spec, apload's hottest (array at the default page size on
	// radram), and the mix is skewed.
	if want := (serve.Request{Experiment: "array", Quick: true, Backend: "radram"}); top != 0 || pop[0] != want {
		t.Fatalf("seed 7 favours spec %d; population starts with %+v, want %+v", top, pop[0], want)
	}
	for i := range c2 {
		if c2[i] > c2[top] {
			t.Fatalf("seed 8 favours spec %d, seed 7 spec %d", i, top)
		}
	}
	// zipfMean weighs ranks as the mix draws them: the expected share of
	// the favourite matches its drawn share.
	first := make([]float64, len(pop))
	first[0] = 1
	if got, want := float64(c1[0])/float64(len(m1)), zipfMean(first); math.Abs(got-want) > 0.02 {
		t.Fatalf("favourite drawn %.3f of the time, zipfMean expects %.3f", got, want)
	}
	med := append([]int(nil), c1...)
	sort.Ints(med)
	if c1[top] < 5*med[len(med)/2] {
		t.Fatalf("mix is not skewed: top %d vs median %d", c1[top], med[len(med)/2])
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond
		{1000, 0.99, 990, true},
		{500, 0.99, 495, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	// Ties at the percentile are not "beyond" it.
	flat := make([]float64, 200)
	if _, ok := percentile(flat, 0.5); ok {
		t.Error("a percentile with no larger sample was reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reported")
	}
}

// TestFailedOperationsMissLatency drives the client against stub fleets
// that refuse, fail, or serve the wrong output, and one that works.
func TestFailedOperationsMissLatency(t *testing.T) {
	const etag = `"ref"`
	stub := func(submit func(w http.ResponseWriter), outputStatus int) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) { submit(w) })
		mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(runView{ID: "b0-r1", State: "done"})
		})
		mux.HandleFunc("GET /api/v1/runs/{id}/output", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(outputStatus)
		})
		return httptest.NewServer(mux)
	}
	accepted := func(state string) func(w http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(runView{ID: "b0-r1", State: state, Error: "boom"})
		}
	}
	refused := func(w http.ResponseWriter) { http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable) }
	cases := []struct {
		name   string
		submit func(w http.ResponseWriter)
		output int
		ok     bool
	}{
		{"refused", refused, http.StatusNotModified, false},
		{"run failed", accepted("failed"), http.StatusNotModified, false},
		{"wrong output", accepted("done"), http.StatusOK, false},
		{"polled to done", accepted("queued"), http.StatusNotModified, true},
	}
	for _, c := range cases {
		srv := stub(c.submit, c.output)
		cl := newClient(srv.URL, 2)
		st := pass(2, 4, func(int) opResult { return cl.do([]byte(`{}`), etag) }, nil)
		cl.close()
		srv.Close()
		if st.Attempted != 4 {
			t.Fatalf("%s: attempted %d, want 4", c.name, st.Attempted)
		}
		if c.ok {
			if st.Failed != 0 || len(st.LatencyUS) != 4 || st.Polls != 4 {
				t.Errorf("%s: failed %d, %d latencies, %d polls; want 0, 4, 4", c.name, st.Failed, len(st.LatencyUS), st.Polls)
			}
			// The output checks are timed and kept out of the pass wall.
			if st.CheckS <= 0 || st.WallS <= 0 {
				t.Errorf("%s: check time %gs, pass wall %gs; want both > 0", c.name, st.CheckS, st.WallS)
			}
			continue
		}
		if st.Failed != 4 || len(st.LatencyUS) != 0 {
			t.Errorf("%s: failed %d with %d latencies; want 4 failed, none timed", c.name, st.Failed, len(st.LatencyUS))
		}
	}

	// A failed operation enters the latency samples as +Inf, so it misses
	// every limit and can push a percentile past any finite value.
	srv := stub(refused, http.StatusNotModified)
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	if r := cl.do([]byte(`{}`), etag); r.ok || !math.IsInf(r.usec, 1) {
		t.Fatalf("refused submission: ok=%t usec=%g, want failed with +Inf latency", r.ok, r.usec)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 1
	}
	samples = append(samples, inf(20)...)
	if v, _ := percentile(samples, 0.9); !math.IsInf(v, 1) {
		t.Fatalf("p90 with 20 failed of 120 = %g, want +Inf", v)
	}
}

func inf(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}

func TestHostBucketsSumToProfileTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var junk [][]byte
	for time.Now().Before(deadline) {
		calibrationSink += uint64(len(population()) + len(coldOrder(int64(len(junk)), 0, 36)))
		junk = append(junk, make([]byte, 64<<10))
		if len(junk) > 64 {
			junk = junk[:0]
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile caught no samples")
	}
	hp := attribute(samples)
	var total float64
	for _, s := range samples {
		total += float64(s.cpuNS) / 1e9
	}
	var sum float64
	for _, b := range hostBuckets {
		v, ok := hp.buckets[b]
		if !ok {
			t.Fatalf("bucket %s missing", b)
		}
		sum += v
	}
	if len(hp.buckets) != len(hostBuckets) {
		t.Fatalf("%d buckets, want %d", len(hp.buckets), len(hostBuckets))
	}
	if math.Abs(sum-total) > 1e-9 || math.Abs(hp.totalS-total) > 1e-9 {
		t.Fatalf("buckets sum to %g s, profile total %g s (attributed total %g s)", sum, total, hp.totalS)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"activepages/internal/mem.(*Store).Read", "main.main"}, "mem"},
		{[]string{"activepages/internal/apps/array.Benchmark.Run"}, "apps"},
		{[]string{"activepages/internal/memsys.(*Hierarchy).Access"}, "memsys"},
		{[]string{"runtime.memmove", "activepages/internal/radram.(*Machine).Restore"}, "memmove"},
		{[]string{"runtime.memclrNoHeapPointers"}, "memmove"},
		{[]string{"runtime.memmove", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "activepages/internal/mem.(*Store).Write"}, "gc"},
		{[]string{"runtime.mapaccess1", "activepages/internal/cache.(*Cache).Access"}, "other"},
		{[]string{"activepages/internal/radram.(*Machine).Checkpoint"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	hp := attribute([]profileSample{
		{frames: []string{"runtime.memmove", restoreFunc}, cpuNS: 3e7},
		{frames: []string{"activepages/internal/mem.x", checkpointFunc}, cpuNS: 1e7},
	})
	if hp.restore != 0.03 || hp.checkpoint != 0.01 || hp.buckets["memmove"] != 0.03 || hp.buckets["mem"] != 0.01 {
		t.Fatalf("attribution %+v", hp)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// names the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloads) {
		t.Errorf("workloads %v, benchmark runs %v", ws, workloads)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, benchmark emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if spec.EndToEnd[i].Name != e.name || spec.EndToEnd[i].Unit != e.unit {
			t.Errorf("end_to_end[%d] = %+v, benchmark emits %s %s", i, spec.EndToEnd[i], e.name, e.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, benchmark emits %d", len(spec.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := spec.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, benchmark emits %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
}
