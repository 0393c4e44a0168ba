package main

// The serving workloads: a fleet built the way `aprouted -spawn` builds
// it (fleet.NewRouter over fleet.StartLocal shards on loopback), driven by
// a closed loop of at most nproc clients over at most nproc connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activepages/internal/apps"
	"activepages/internal/experiments"
	"activepages/internal/fleet"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/serve"
)

const (
	// pollInterval is the client's wait between status reads of a queued
	// or running run. A cold run of the population executes in 6 to 450 ms
	// (median about 70 ms, batch, on a 2-CPU host), so a 5 ms poll
	// resolves completion well inside a typical run without the polls
	// themselves loading the fleet.
	pollInterval = 5 * time.Millisecond
	// warmPassRuns is how many requests one measured warm pass sends.
	warmPassRuns = 2000
	// warmPassesPerSecond sizes the warm window from --seconds: on a 2-CPU
	// host a pass takes about half a second, output checks included.
	warmPassesPerSecond = 2
	// warmMixLen is the length of the seeded Zipf request sequence the
	// warm passes walk through cyclically.
	warmMixLen = 1 << 16
	// zipfS is the warm mix's skew: a few specs dominate, as in a fleet
	// whose callers re-request the same popular results.
	zipfS = 1.1
	// sliceRuns is how many cache-hit submissions the traced slice times
	// through each of the router and shard handlers: enough that ten
	// samples lie beyond the 99th percentile.
	sliceRuns = 1200
	// traceEvery samples one warm run in traceEvery for a span read.
	traceEvery = 16
)

// populationPageBytes is the superpage-size axis of the repo's own Zipf
// traffic (apload -zipf, as the CI fleet smoke sends it), hottest first:
// the default size (0, i.e. experiments.ScaledPageBytes = 64 KiB), then
// 16, 32, 128 and 256 KiB. apload's explicit 64 KiB entry is left out:
// serve.SpecKey folds it into the default, so it is not a distinct spec.
var populationPageBytes = []uint64{0, 16 << 10, 32 << 10, 128 << 10, 256 << 10}

// population returns the serve workloads' specs as quick single-benchmark
// runs, in popularity order, generated as apload generates its mix: page
// size outermost, then every benchmark (experiments.BenchmarkNames, which
// begins with apload's array, database and median-kernel), then every
// backend it runs on (radram, apload's default, first). So the hottest
// spec is apload's: array at the default page size on radram. The set is
// the same for every seed, so a pass does the same work whatever the
// seed; the seed orders the cold submissions (coldOrder) and draws the
// warm mix (zipfMix).
func population() []serve.Request {
	var out []serve.Request
	for _, pb := range populationPageBytes {
		for _, name := range experiments.BenchmarkNames() {
			b, err := experiments.BenchmarkByName(name)
			if err != nil {
				panic(err) // BenchmarkNames lists exactly what BenchmarkByName accepts
			}
			for _, bk := range []string{"radram", "simdram"} {
				if apps.Supports(b, bk) {
					out = append(out, serve.Request{Experiment: name, Quick: true, PageBytes: pb, Backend: bk})
				}
			}
		}
	}
	return out
}

// coldOrder returns the order, drawn from seed, in which repetition rep's
// cold clients submit a population of m specs. The order decides which
// runs meet in a shard's queue, so it moves a repetition's wall and
// latencies; each repetition draws its own, and a run's medians pool
// several orders rather than repeat one.
func coldOrder(seed int64, rep, m int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(rep))).Perm(m)
}

// zipfMix returns n indices into a population of m specs, drawn from seed
// under a Zipf(zipfS) distribution over popularity rank, which is the
// population's order. The ranking does not depend on the seed: the specs'
// results stand for different amounts of simulated work, so a
// seed-dependent ranking would move the warm metrics from seed to seed.
func zipfMix(seed int64, m, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// zipfMean is the expected value of xs[k] when k is drawn as zipfMix
// draws it: with weight (1+k)^-zipfS.
func zipfMean(xs []float64) float64 {
	var sum, norm float64
	for k, x := range xs {
		w := math.Pow(float64(1+k), -zipfS)
		sum += w * x
		norm += w
	}
	return sum / norm
}

// reference is the batch output of one spec: the ETag a served run's
// /output must carry, and the simulated instructions the run represents.
type reference struct {
	ETag  string `json:"etag"`
	Instr int64  `json:"instr"`
}

// references computes every spec's batch result with experiments.Dispatch,
// exactly as a shard executes it, sharing one checkpoint cache across the
// specs as a shard does. It runs once per benchmark run, before any timing.
func references(specs []serve.Request) ([]reference, error) {
	ckpt := run.NewCheckpointCache(0)
	out := make([]reference, len(specs))
	for i, req := range specs {
		r := (&run.Runner{Jobs: 1, Checkpoints: ckpt}).WithMetrics()
		cfg := experiments.DefaultConfig()
		if req.PageBytes != 0 {
			cfg = radram.DefaultConfig().WithPageBytes(req.PageBytes)
		}
		var buf bytes.Buffer
		opt := experiments.Options{Regions: req.Regions, L2: req.L2, Backend: req.Backend}
		if err := experiments.Dispatch(&buf, r, req.Experiment, cfg, experiments.QuickPagePoints(), opt); err != nil {
			return nil, fmt.Errorf("reference %s: %w", req, err)
		}
		out[i] = reference{ETag: etagOf(buf.Bytes()), Instr: simCounters(r.Metrics.Snapshot(), "")["sim.instructions"]}
	}
	return out, nil
}

// serveJob is what the parent hands a serve child on stdin.
type serveJob struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Rep      int             `json:"rep"` // the cold repetition's index
	Seconds  float64         `json:"seconds"`
	Traced   bool            `json:"traced"`
	Specs    []serve.Request `json:"specs"`
	Refs     []reference     `json:"refs"`
}

// serveOut is what a serve child reports back.
type serveOut struct {
	ReadyUnixNS int64 `json:"ready_unix_ns"`
	// Passes holds one entry per measured pass: a whole population on a
	// fresh fleet (cold) or warmPassRuns Zipf requests (warm).
	Passes []passStats `json:"passes"`
	// TracedPasses are the passes of a warm child's traced window.
	TracedPasses []passStats        `json:"traced_passes,omitempty"`
	Sim          map[string]int64   `json:"sim"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        *spanAgg           `json:"spans,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
	Err          string             `json:"err,omitempty"`
}

// passStats is one pass of the closed loop.
type passStats struct {
	// WallS is the pass's wall time less the mean client's time in output
	// checks (CheckS over the clients): the check is the benchmark's, not
	// the user's, so it stays out of runs_per_s.
	WallS     float64   `json:"wall_s"`
	CheckS    float64   `json:"check_s"`
	LatencyUS []float64 `json:"latency_us"` // completed runs only
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Polls     int       `json:"polls"`
}

// opResult is one client operation: submit, poll to a terminal state,
// and check the output against the batch reference.
type opResult struct {
	id     string
	ok     bool
	polls  int
	usec   float64 // submit -> observed done; +Inf when the op failed
	checkS float64 // time spent checking the output
	reason string
	// spans and traceErr hold the run's lifecycle trace when it was read.
	spans    []traceEvent
	traceErr error
}

// client is one closed-loop load generator over a bounded connection pool.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// runView is the slice of a run record the client reads.
type runView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// do performs one operation. A submission the fleet refuses, a run that
// fails, and an output that differs from the reference all count as a
// failed operation whose latency misses every limit (+Inf).
func (c *client) do(body []byte, etag string) opResult {
	fail := func(id string, polls int, why string) opResult {
		return opResult{id: id, polls: polls, usec: math.Inf(1), reason: why}
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("", 0, err.Error())
	}
	var v runView
	derr := json.NewDecoder(resp.Body).Decode(&v)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fail("", 0, fmt.Sprintf("submit refused: %s", resp.Status))
	}
	if derr != nil {
		return fail("", 0, "submit response: "+derr.Error())
	}
	polls := 0
	for v.State != string(serve.StateDone) && v.State != string(serve.StateFailed) {
		time.Sleep(pollInterval)
		polls++
		if err := c.getJSON("/api/v1/runs/"+v.ID, &v); err != nil {
			return fail(v.ID, polls, err.Error())
		}
	}
	usec := float64(time.Since(start).Nanoseconds()) / 1e3
	if v.State != string(serve.StateDone) {
		return fail(v.ID, polls, "run failed: "+v.Error)
	}
	// The output check sits outside the latency window and is timed, so
	// the pass can take it out of its clock: the fleet's strong ETag is
	// the sha256 of the output bytes, so a 304 against the reference's
	// ETag proves byte equality without moving the body.
	checkStart := time.Now()
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/runs/"+v.ID+"/output", nil)
	if err != nil {
		return fail(v.ID, polls, err.Error())
	}
	req.Header.Set("If-None-Match", etag)
	oresp, err := c.http.Do(req)
	if err != nil {
		return fail(v.ID, polls, err.Error())
	}
	io.Copy(io.Discard, oresp.Body)
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusNotModified {
		return fail(v.ID, polls, fmt.Sprintf("output differs from batch reference (%s)", oresp.Status))
	}
	return opResult{id: v.ID, ok: true, polls: polls, usec: usec, checkS: time.Since(checkStart).Seconds()}
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pass runs n operations through nclients closed-loop clients: each client takes the next operation index as soon as its
// previous operation completes. done is called for every result.
func pass(nclients, n int, op func(i int) opResult, done func(i int, r opResult)) passStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st passStats
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < nclients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := op(i)
				mu.Lock()
				st.Attempted++
				st.Polls += r.polls
				st.CheckS += r.checkS
				if r.ok {
					st.LatencyUS = append(st.LatencyUS, r.usec)
				} else {
					st.Failed++
				}
				if done != nil {
					done(i, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.WallS = time.Since(start).Seconds() - st.CheckS/float64(nclients)
	return st
}

// testFleet is one in-process fleet: nproc single-worker shards behind a
// router listening on loopback.
type testFleet struct {
	shards []*fleet.LocalBackend
	router *fleet.Router
	http   *http.Server
	url    string
	stop   chan struct{}
}

func startFleet(n int) (*testFleet, error) {
	f := &testFleet{stop: make(chan struct{})}
	var urls []string
	for i := 0; i < n; i++ {
		lb, err := fleet.StartLocal(serve.Config{Workers: 1, JobsPerRun: 1, InstanceID: fmt.Sprintf("b%d", i)})
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, lb)
		urls = append(urls, lb.URL())
	}
	f.router = fleet.NewRouter(fleet.Config{Backends: urls})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	f.router.Start(f.stop)
	f.http = &http.Server{Handler: f.router.Handler()}
	go f.http.Serve(ln)
	f.url = "http://" + ln.Addr().String()
	return f, nil
}

func (f *testFleet) close() {
	if f.http != nil {
		f.http.Close()
		close(f.stop)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, lb := range f.shards {
		lb.Stop(ctx)
	}
}

// shardFor returns the index of the shard that owns a fleet run id
// ("b1-r000042"), or -1.
func (f *testFleet) shardFor(id string) int {
	for i := range f.shards {
		if strings.HasPrefix(id, fmt.Sprintf("b%d-", i)) {
			return i
		}
	}
	return -1
}

// warmConnections opens the client's connections to the router and the
// router's to every shard: an unknown run id makes the router ask each
// shard in turn.
func warmConnections(c *client, nclients int) {
	var wg sync.WaitGroup
	for k := 0; k < nclients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range []string{"/healthz", "/api/v1/runs/warmup-r000000"} {
				if resp, err := c.http.Get(c.base + p); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// serveChild runs one serve child: set up a fresh fleet, then measure.
func serveChild(job serveJob) serveOut {
	var out serveOut
	nclients := runtime.NumCPU()
	f, err := startFleet(runtime.NumCPU())
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer f.close()
	c := newClient(f.url, nclients)
	defer c.close()
	warmConnections(c, nclients)

	bodies := make([][]byte, len(job.Specs))
	for i, s := range job.Specs {
		bodies[i], _ = json.Marshal(s) // a Request always marshals
	}
	// measure runs n operations, operation i submitting spec specOf(i).
	// With spans set, every traceEvery-th completed run's trace is read
	// right after the run (before retention can evict it), outside its
	// latency window.
	measure := func(n int, specOf func(int) int, spans *spanAgg) passStats {
		return pass(nclients, n, func(i int) opResult {
			r := c.do(bodies[specOf(i)], job.Refs[specOf(i)].ETag)
			if spans != nil && r.ok && i%spans.every == 0 {
				r.spans, r.traceErr = readTrace(c, r.id)
			}
			return r
		}, func(i int, r opResult) {
			if !r.ok && len(out.Notes) < 5 {
				out.Notes = append(out.Notes, r.reason)
			}
			if spans != nil {
				spans.add(r)
			}
		})
	}
	order := coldOrder(job.Seed, job.Rep, len(bodies))
	inOrder := func(i int) int { return order[i] }

	if job.Workload == "serve_cold" {
		out.ReadyUnixNS = time.Now().UnixNano()
		before := scrape(c, &out.Notes)
		var tr *tracedWindow
		var spans *spanAgg
		if job.Traced {
			tr, spans = startTrace(), newSpanAgg(1)
		}
		out.Passes = []passStats{measure(len(bodies), inOrder, spans)}
		after := scrape(c, &out.Notes)
		out.Sim = simCounters(obs.Snapshot(after.Fleet.delta(before.Fleet)), "run.")
		if tr != nil {
			out.Layers, out.Notes = tr.finish(c, f, job, before, after, nclients, out.Notes)
			out.Spans = spans
		}
		return out
	}

	// serve_warm: prime the whole population (cold), then one discarded
	// warm pass, all inside set-up.
	prime := measure(len(bodies), inOrder, nil)
	if prime.Failed > 0 {
		out.Err = fmt.Sprintf("priming: %d of %d runs failed: %v", prime.Failed, prime.Attempted, out.Notes)
		return out
	}
	mix := zipfMix(job.Seed, len(bodies), warmMixLen)
	cursor := 0
	warmPass := func(spans *spanAgg) passStats {
		base := cursor
		cursor += warmPassRuns
		return measure(warmPassRuns, func(i int) int { return mix[(base+i)%len(mix)] }, spans)
	}
	warmPass(nil)
	out.ReadyUnixNS = time.Now().UnixNano()

	// The window is a fixed number of passes rather than a fixed time: the
	// fleet's memory grows with the runs it has served, so a fixed count
	// keeps peak_rss_mb comparable between runs on hosts of any speed.
	window := func(passes int, spans *spanAgg) []passStats {
		var ps []passStats
		for len(ps) < passes {
			ps = append(ps, warmPass(spans))
		}
		return ps
	}
	passes := max(3, int(job.Seconds*warmPassesPerSecond))
	if job.Traced {
		passes = max(3, passes/2)
	}
	before := scrape(c, &out.Notes)
	out.Passes = window(passes, nil)
	mid := scrape(c, &out.Notes)
	out.Sim = simCounters(obs.Snapshot(mid.Fleet.delta(before.Fleet)), "run.")
	if job.Traced {
		tr, spans := startTrace(), newSpanAgg(traceEvery)
		out.TracedPasses = window(passes, spans)
		after := scrape(c, &out.Notes)
		out.Layers, out.Notes = tr.finish(c, f, job, mid, after, nclients, out.Notes)
		out.Spans = spans
	}
	return out
}

// spanAgg collects the lifecycle spans of sampled runs, in microseconds.
// The parent pools it over a run's traced repetitions before taking
// percentiles.
type spanAgg struct {
	every   int
	Ring    []float64          `json:"ring"`
	Proxy   []float64          `json:"proxy"`
	Queue   []float64          `json:"queue"`
	Execute []float64          `json:"execute"`
	BenchUS map[string]float64 `json:"bench_us"`
	Errs    int                `json:"errs"`
}

func newSpanAgg(every int) *spanAgg {
	return &spanAgg{every: every, BenchUS: map[string]float64{}}
}

// merge pools o into a.
func (a *spanAgg) merge(o *spanAgg) {
	a.Ring = append(a.Ring, o.Ring...)
	a.Proxy = append(a.Proxy, o.Proxy...)
	a.Queue = append(a.Queue, o.Queue...)
	a.Execute = append(a.Execute, o.Execute...)
	for b, us := range o.BenchUS {
		a.BenchUS[b] += us
	}
	a.Errs += o.Errs
}

// fill sets the span-derived layer metrics; reps is how many repetitions
// were pooled, so per-benchmark host times are per repetition.
func (a *spanAgg) fill(layers map[string]float64, reps int, notes *[]string) {
	if a.Errs > 0 {
		*notes = append(*notes, fmt.Sprintf("%d sampled traces unreadable", a.Errs))
	}
	for b, us := range a.BenchUS {
		layers["apps."+b+".host_s"] = us / 1e6 / float64(reps)
	}
	layers["router.ring_lookup_us_p50"] = pctNote(notes, "router.ring_lookup_us_p50", a.Ring, 0.5)
	layers["router.proxy_us_p50"] = pctNote(notes, "router.proxy_us_p50", a.Proxy, 0.5)
	layers["serve.queue_wait_ms_p50"] = pctNote(notes, "serve.queue_wait_ms_p50", a.Queue, 0.5) / 1e3
	layers["serve.queue_wait_ms_p90"] = pctNote(notes, "serve.queue_wait_ms_p90", a.Queue, 0.9) / 1e3
	layers["serve.run_wall_ms_p50"] = pctNote(notes, "serve.run_wall_ms_p50", a.Execute, 0.5) / 1e3
	layers["serve.run_wall_ms_p90"] = pctNote(notes, "serve.run_wall_ms_p90", a.Execute, 0.9) / 1e3
}

func (a *spanAgg) add(r opResult) {
	if r.traceErr != nil {
		a.Errs++
	}
	for _, ev := range r.spans {
		switch {
		case ev.Name == "ring_lookup":
			a.Ring = append(a.Ring, ev.Dur)
		case strings.HasPrefix(ev.Name, "attempt "):
			a.Proxy = append(a.Proxy, ev.Dur)
		case ev.Name == "queue_wait":
			a.Queue = append(a.Queue, ev.Dur)
		case strings.HasPrefix(ev.Name, "execute"):
			a.Execute = append(a.Execute, ev.Dur)
		case ev.Cat == "measure":
			bench, _, _ := strings.Cut(ev.Name, " ")
			a.BenchUS[bench] += ev.Dur
		}
	}
}

// fleetScrape is one read of the router's federated metrics.
type fleetScrape struct {
	Router obs.Snapshot            `json:"router"`
	Fleet  snapshot                `json:"fleet"`
	Shards map[string]obs.Snapshot `json:"shards"`
}

func scrape(c *client, notes *[]string) fleetScrape {
	var s fleetScrape
	if err := c.getJSON("/api/v1/metricsz", &s); err != nil {
		*notes = append(*notes, "metricsz: "+err.Error())
	}
	return s
}

// tracedWindow is the tracing attached to one measured window: a CPU
// profile of this process, which hosts the whole fleet.
type tracedWindow struct {
	prof bytes.Buffer
	on   bool
}

func startTrace() *tracedWindow {
	t := &tracedWindow{}
	t.on = pprof.StartCPUProfile(&t.prof) == nil
	return t
}

// finish stops the profile and derives every serving-side layer metric
// from the window's metricsz deltas, the sampled runs' traces, and a
// slice of cache-hit submissions timed through the router and shard
// handlers directly.
func (t *tracedWindow) finish(c *client, f *testFleet, job serveJob, before, after fleetScrape,
	nclients int, notes []string) (map[string]float64, []string) {
	if t.on {
		pprof.StopCPUProfile()
	}
	layers := zeroLayers()
	if !t.on {
		notes = append(notes, "CPU profile unavailable: host.* and radram.* read 0")
	} else {
		if samples, err := parseProfile(t.prof.Bytes()); err == nil {
			addHostLayers(layers, attribute(samples))
		} else {
			notes = append(notes, err.Error())
		}
	}

	d := after.Fleet.delta(before.Fleet)
	addSnapshotLayers(layers, d, "run.")
	hits, misses, dedup := d["serve.cache_hits"], d["serve.cache_misses"], d["serve.cache_dedup"]
	if n := hits + misses + dedup; n > 0 {
		layers["serve.cache_hit_ratio"] = float64(hits) / float64(n)
	}
	layers["serve.cache_dedup"] = float64(dedup)
	layers["serve.cache_evicted"] = float64(d["serve.cache_evicted"])
	rd := snapshot(after.Router).delta(snapshot(before.Router))
	layers["router.retries"] = float64(rd["router.retries"])
	layers["router.shed"] = float64(rd["router.shed"])
	layers["router.proxy_errors"] = float64(rd["router.proxy_errors"])
	var served []float64
	for inst, s := range after.Shards {
		served = append(served, float64(snapshot(s).delta(snapshot(before.Shards[inst]))["serve.runs_completed"]))
	}
	if mean := sum(served) / float64(len(served)); mean > 0 {
		layers["fleet.shard_imbalance"] = maxOf(served) / mean
	}

	// The slice: cache-hit resubmissions of the population, timed through
	// the router's and the owning shard's handlers in-process, and over
	// HTTP to the router and straight to the shard.
	var routeSubmit, shardSubmit, shardGet, routedHTTP, directHTTP []float64
	refused := 0
	direct := make([]*client, len(f.shards))
	for i, lb := range f.shards {
		direct[i] = newClient(lb.URL(), nclients)
		defer direct[i].close()
	}
	for i := 0; i < sliceRuns; i++ {
		body, _ := json.Marshal(job.Specs[i%len(job.Specs)])
		rec := httptest.NewRecorder()
		routeSubmit = append(routeSubmit, timeUS(func() {
			f.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/runs", bytes.NewReader(body)))
		}))
		id := strings.TrimPrefix(rec.Header().Get("Location"), "/api/v1/runs/")
		k := f.shardFor(id)
		if rec.Code != http.StatusAccepted || k < 0 {
			refused++
			continue
		}
		lb := f.shards[k]
		shardSubmit = append(shardSubmit, timeUS(func() {
			lb.Server().Handler().ServeHTTP(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodPost, "/api/v1/runs", bytes.NewReader(body)))
		}))
		shardGet = append(shardGet, timeUS(func() {
			lb.Server().Handler().ServeHTTP(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodGet, "/api/v1/runs/"+id, nil))
		}))
		routedHTTP = append(routedHTTP, timeUS(func() { postDiscard(c, body) }))
		directHTTP = append(directHTTP, timeUS(func() { postDiscard(direct[k], body) }))
	}
	if refused > 0 {
		notes = append(notes, fmt.Sprintf("slice: %d of %d submissions refused", refused, sliceRuns))
	}
	layers["router.route_submit_us_p50"] = pctNote(&notes, "router.route_submit_us_p50", routeSubmit, 0.5)
	layers["serve.route_submit_us_p50"] = pctNote(&notes, "serve.route_submit_us_p50", shardSubmit, 0.5)
	layers["serve.route_submit_us_p99"] = pctNote(&notes, "serve.route_submit_us_p99", shardSubmit, 0.99)
	layers["serve.route_get_us_p50"] = pctNote(&notes, "serve.route_get_us_p50", shardGet, 0.5)
	layers["router.hop_us_p50"] = pctNote(&notes, "router.hop_us_p50 (routed)", routedHTTP, 0.5) -
		pctNote(&notes, "router.hop_us_p50 (direct)", directHTTP, 0.5)
	layers["serve.spec_key_ns"] = specKeyNS(job.Specs)
	return layers, notes
}

func postDiscard(c *client, body []byte) {
	resp, err := c.http.Post(c.base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// specKeyNS is the mean cost of serve.SpecKey over the population.
func specKeyNS(specs []serve.Request) float64 {
	const rounds = 2000
	start := time.Now()
	n := 0
	for r := 0; r < rounds; r++ {
		for _, s := range specs {
			if serve.SpecKey(s) == "" {
				panic("empty spec key")
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func timeUS(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// pctNote returns the q-quantile of samples, noting when fewer than ten
// samples lie beyond it (per-layer metrics are still reported then).
func pctNote(notes *[]string, name string, samples []float64, q float64) float64 {
	v, ok := percentile(samples, q)
	if !ok {
		*notes = append(*notes, fmt.Sprintf("%s: %d samples, fewer than %d beyond the percentile", name, len(samples), minBeyond))
	}
	return v
}

// traceEvent is the part of a Chrome trace_event record the layer
// metrics read; times are microseconds.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Dur  float64 `json:"dur"`
}

func readTrace(c *client, id string) ([]traceEvent, error) {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := c.getJSON("/api/v1/runs/"+id+"/trace", &doc); err != nil {
		return nil, err
	}
	spans := doc.TraceEvents[:0]
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
