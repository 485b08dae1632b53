package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. Bound is the share of the
// baseline's median by which an end-to-end metric may get worse before
// -compare (and the PR driver, through BENCHMARK.json) calls it a regression;
// per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// exactBound is the bound of the metrics that repeat bit for bit (simulated
// cycles, physical units): one part in a million is below one unit of either
// on every workload, so any increase at all is a regression.
const exactBound = 0.000001

// endToEnd lists what a user of the system sees, in the order printed.
// README.md, "End-to-end metrics", has the ten-run spreads the bounds are
// three times of (the PR driver's rule, capped at its maximum of a quarter),
// and says where compile_s and failed_share went.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"sim_s", "s", "lower", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"op_p90_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.20},
	{"sim_cycles", "cycles", "lower", exactBound},
	{"pus", "count", "lower", exactBound},
}

// perLayer lists the layer metrics of the traced run; layer = repo package.
// README.md says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"workloads.build_s", "s", "lower", 0},
	{"core.compile_s", "s", "lower", 0},
	{"core.self_s", "s", "lower", 0},
	{"consistency.busy_s", "s", "lower", 0},
	{"consistency.tokens_raw", "count", "lower", 0},
	{"consistency.tokens_reduced", "count", "lower", 0},
	{"lower.busy_s", "s", "lower", 0},
	{"lower.vus", "count", "lower", 0},
	{"lower.edges", "count", "lower", 0},
	{"opt.early_s", "s", "lower", 0},
	{"opt.late_s", "s", "lower", 0},
	{"opt.route_throughs", "count", "higher", 0},
	{"opt.retime_vus", "count", "lower", 0},
	{"membank.busy_s", "s", "lower", 0},
	{"membank.banks_created", "count", "lower", 0},
	{"partition.busy_s", "s", "lower", 0},
	{"partition.new_vus", "count", "lower", 0},
	{"partition.mip_nodes", "count", "lower", 0},
	{"merge.busy_s", "s", "lower", 0},
	{"merge.mip_nodes", "count", "lower", 0},
	{"merge.pus", "count", "lower", 0},
	{"mip.node_us", "us", "lower", 0},
	{"place.busy_s", "s", "lower", 0},
	{"place.hops_total", "count", "lower", 0},
	{"sim.busy_s", "s", "lower", 0},
	{"sim.cycles", "cycles", "lower", 0},
	{"sim.fired", "count", "lower", 0},
	{"sim.ns_per_cycle", "ns", "lower", 0},
	{"sim.ns_per_firing", "ns", "lower", 0},
	{"sim.stall_token_cycles", "cycles", "lower", 0},
	{"sim.stall_in_cycles", "cycles", "lower", 0},
	{"sim.stall_out_cycles", "cycles", "lower", 0},
	{"sim.auto_dense_ops", "count", "lower", 0},
	{"sim.auto_event_ops", "count", "lower", 0},
	{"dram.bytes", "bytes", "lower", 0},
	{"dram.stall_cycles", "cycles", "lower", 0},
	{"sim.analytic_s", "s", "lower", 0},
	{"sim.analytic_ratio", "ratio", "lower", 0},
	{"store.encode_s", "s", "lower", 0},
	{"store.decode_s", "s", "lower", 0},
	{"store.artifact_bytes", "bytes", "lower", 0},
	{"store.put_s", "s", "lower", 0},
	{"store.get_s", "s", "lower", 0},
	{"store.stage_hits", "count", "higher", 0},
	{"store.stage_misses", "count", "lower", 0},
	{"store.stage_hit_ratio", "ratio", "higher", 0},
	{"store.bytes_written", "bytes", "lower", 0},
	{"store.bytes_read", "bytes", "lower", 0},
	{"server.request_s", "s", "lower", 0},
	{"server.handler_s", "s", "lower", 0},
	{"server.transport_s", "s", "lower", 0},
	{"server.key_s", "s", "lower", 0},
	{"server.compile_reported_s", "s", "lower", 0},
	{"server.sim_reported_s", "s", "lower", 0},
	{"server.overhead_s", "s", "lower", 0},
	{"server.response_bytes", "bytes", "lower", 0},
	{"server.cache_hits", "count", "higher", 0},
	{"server.cache_misses", "count", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.compiles", "count", "lower", 0},
	{"server.store_final_serves", "count", "higher", 0},
	{"server.proxy_success", "count", "lower", 0},
	{"server.proxy_fallback_local", "count", "lower", 0},
	{"server.proxy_s", "s", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.timeouts", "count", "lower", 0},
	{"host.calib_s", "s", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
}

// metricValue is one printed number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the p-th percentile (0 <= p <= 1) by linear
// interpolation between the two nearest ranks: percentile(v, 0.5) is the
// median. The op lists are short (6 to 600 ops), and a nearest-rank pick would
// report one op's time where this reports the mean of two neighbours.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so spreads printed
// by -compare are the ones the PR driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
