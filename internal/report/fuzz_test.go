package report

import (
	"maps"
	"strings"
	"testing"

	"activepages/internal/obs"
)

// FuzzParseMetrics feeds ParseMetrics arbitrary bytes, which must never
// panic, and a snapshot the fuzzer builds, which must round-trip exactly
// through obs.Snapshot.JSON both as raw JSON and wrapped as apbench
// stdout: table lines, MetricsMarker, the JSON, then trailing lines.
//
// The snapshot's names are the newline-separated lines of keys, made
// valid UTF-8 (JSON encoding replaces invalid bytes), and name i holds
// v + i·φ·2^64, which wraps through negative and extreme values. Names
// containing MetricsMarker are dropped, and '#' is removed from the
// trailing lines: apbench never prints the marker anywhere but before the
// snapshot, and ParseMetrics finds it by its last occurrence. The seed
// corpus is under testdata/fuzz/FuzzParseMetrics.
func FuzzParseMetrics(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, keys string, v int64, prefix, trailing string) {
		ParseMetrics(raw)

		want := obs.Snapshot{}
		for i, k := range strings.Split(keys, "\n") {
			k = strings.ToValidUTF8(k, "\uFFFD")
			if !strings.Contains(k, MetricsMarker) {
				want[k] = v + int64(i)*-7046029254386353131
			}
		}
		j, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseMetrics(j)
		if err != nil || !maps.Equal(got, want) {
			t.Fatalf("raw JSON: got %v, %v; want %v", got, err, want)
		}
		stdout := prefix + "\n" + MetricsMarker + "\n" + string(j) + "\n" +
			strings.ReplaceAll(trailing, "#", "") + "\n"
		got, err = ParseMetrics([]byte(stdout))
		if err != nil || !maps.Equal(got, want) {
			t.Fatalf("apbench stdout %q: got %v, %v; want %v", stdout, got, err, want)
		}
	})
}
