package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"activepages/internal/experiments"
	"activepages/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetric names one per-layer metric.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run reports, in report
// order. A layer a workload does not exercise reads 0 there (README.md
// lists which workload moves which metric).
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, e := range experiments.All {
		out = append(out, layerMetric{"experiments." + e + ".host_s", "s", "lower"})
	}
	for _, b := range experiments.BenchmarkNames() {
		out = append(out, layerMetric{"apps." + b + ".host_s", "s", "lower"})
	}
	out = append(out,
		layerMetric{"run.ckpt_cold", "count", "lower"},
		layerMetric{"run.ckpt_branch", "count", "higher"},
		layerMetric{"run.ckpt_reuse_ratio", "ratio", "higher"},
		layerMetric{"run.ckpt_entries", "count", "lower"},
		layerMetric{"run.ckpt_bytes", "bytes", "lower"},
		layerMetric{"radram.checkpoint_s", "s", "lower"},
		layerMetric{"radram.restore_s", "s", "lower"},
		layerMetric{"memsys.fold_streams", "count", "higher"},
		layerMetric{"memsys.fold_engaged_ratio", "ratio", "higher"},
		layerMetric{"memsys.fold_elided_ratio", "ratio", "higher"},
		layerMetric{"memsys.fold_fallback_guard", "count", "lower"},
		layerMetric{"memsys.fold_fallback_ineligible", "count", "lower"},
		layerMetric{"memsys.fold_fallback_short", "count", "lower"},
		layerMetric{"memsys.fold_fallback_unverified", "count", "lower"},
		layerMetric{"memsys.fold_fallback_wrap", "count", "lower"},
	)
	for _, b := range hostBuckets {
		out = append(out, layerMetric{"host." + b + "_s", "s", "lower"})
	}
	for _, s := range simMetrics {
		out = append(out, layerMetric{s.name, "count", "lower"})
	}
	out = append(out,
		layerMetric{"serve.route_submit_us_p50", "us", "lower"},
		layerMetric{"serve.route_submit_us_p99", "us", "lower"},
		layerMetric{"serve.route_get_us_p50", "us", "lower"},
		layerMetric{"serve.queue_wait_ms_p50", "ms", "lower"},
		layerMetric{"serve.queue_wait_ms_p90", "ms", "lower"},
		layerMetric{"serve.run_wall_ms_p50", "ms", "lower"},
		layerMetric{"serve.run_wall_ms_p90", "ms", "lower"},
		layerMetric{"serve.cache_hit_ratio", "ratio", "higher"},
		layerMetric{"serve.cache_dedup", "count", "higher"},
		layerMetric{"serve.cache_evicted", "count", "lower"},
		layerMetric{"serve.spec_key_ns", "ns", "lower"},
		layerMetric{"router.route_submit_us_p50", "us", "lower"},
		layerMetric{"router.hop_us_p50", "us", "lower"},
		layerMetric{"router.ring_lookup_us_p50", "us", "lower"},
		layerMetric{"router.proxy_us_p50", "us", "lower"},
		layerMetric{"router.retries", "count", "lower"},
		layerMetric{"router.shed", "count", "lower"},
		layerMetric{"router.proxy_errors", "count", "lower"},
		layerMetric{"fleet.shard_imbalance", "ratio", "lower"},
		layerMetric{"client.polls_per_run", "count", "lower"},
		layerMetric{"trace_overhead_ratio", "ratio", "lower"},
	)
	return out
}()

// zeroLayers returns every per-layer metric at 0, ready to be filled.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

// simMetrics are the simulated-model invariants: counters of the modelled
// machines, summed over every machine namespace. Any host-speed change
// must leave them identical.
var simMetrics = []struct{ name, suffix string }{
	{"sim.instructions", ".proc.instructions"},
	{"sim.l1d_misses", ".mem.l1d.misses"},
	{"sim.l2_misses", ".mem.l2.misses"},
	{"sim.dram_accesses", ".mem.dram.accesses"},
	{"sim.bus_bytes", ".mem.bus.bytes"},
}

// snapshot is an obs.Snapshot read back from JSON.
type snapshot obs.Snapshot

// delta returns s - prev key by key: the counters and histogram buckets
// accumulated between two reads.
func (s snapshot) delta(prev snapshot) snapshot {
	d := make(snapshot, len(s))
	for k, v := range s {
		d[k] = v - prev[k]
	}
	return d
}

// sumMatching sums the values under prefix whose key ends in suffix —
// one counter over every machine namespace (conv., rad., simdram., smp.).
func sumMatching(s snapshot, prefix, suffix string) int64 {
	var t int64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

// simCounters extracts the sim.* invariants from a batch snapshot
// (prefix "") or from a fleet's completed-run aggregate (prefix "run.",
// which excludes the per-backend copies the fleet also exports).
func simCounters(s obs.Snapshot, prefix string) map[string]int64 {
	out := make(map[string]int64, len(simMetrics))
	for _, m := range simMetrics {
		out[m.name] = sumMatching(snapshot(s), prefix, m.suffix)
	}
	return out
}

// addSnapshotLayers fills the run (checkpoint cache), memsys (fold) and
// sim metrics from a snapshot of simulated runs.
func addSnapshotLayers(layers map[string]float64, s snapshot, prefix string) {
	cold := sumMatching(s, prefix, ".diag.checkpoint_cold")
	branch := sumMatching(s, prefix, ".diag.checkpoint_branch")
	layers["run.ckpt_cold"] = float64(cold)
	layers["run.ckpt_branch"] = float64(branch)
	if cold+branch > 0 {
		layers["run.ckpt_reuse_ratio"] = float64(branch) / float64(cold+branch)
	}
	fold := func(name string) int64 { return sumMatching(s, prefix, ".mem.diag.fold_"+name) }
	streams := fold("streams")
	layers["memsys.fold_streams"] = float64(streams)
	if streams > 0 {
		layers["memsys.fold_engaged_ratio"] = float64(fold("engaged")) / float64(streams)
	}
	if it := fold("folded_iters") + fold("scalar_iters"); it > 0 {
		layers["memsys.fold_elided_ratio"] = float64(fold("folded_iters")) / float64(it)
	}
	for _, r := range []string{"guard", "ineligible", "short", "unverified", "wrap"} {
		layers["memsys.fold_fallback_"+r] = float64(fold("fallback_" + r))
	}
	for k, v := range simCounters(obs.Snapshot(s), prefix) {
		layers[k] = float64(v)
	}
}

// addHostLayers fills the host.* buckets and the radram checkpoint and
// restore times from a profile attribution.
func addHostLayers(layers map[string]float64, hp hostProfile) {
	for b, s := range hp.buckets {
		layers["host."+b+"_s"] = s
	}
	layers["radram.checkpoint_s"] = hp.checkpoint
	layers["radram.restore_s"] = hp.restore
}

// etagOf is the strong ETag the fleet's artifact endpoints put on body.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}
