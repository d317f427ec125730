package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported number. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them with bounds and
// directions, and TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, on both clocks: the wall
// clock of the host running the simulator and the simulated clock that
// carries the paper's T_Q, T_local and Load_Q (Section 6).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_wall_ms_p50", "ms"},
	{"query_wall_ms_p90", "ms"},
	{"queries_per_s", "1/s"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"alloc_kb_per_query", "KB"},
	{"peak_heap_mb", "MB"},
	{"sim_tq_ms", "ms"},
	{"sim_tlocal_ms", "ms"},
	{"sim_load_mb", "MB"},
}

// perLayer is the ledger: one row per layer boundary, each obtained from
// outside the program by a stage bracket, the span-recording SSI
// decorator, or a kernel replay (README.md says which).
var perLayer = []metricDef{
	{"core.provision_ms", "ms"},
	{"core.collect_ms", "ms"},
	{"core.aggregate_filter_ms", "ms"},
	{"core.integrity_ms", "ms"},
	{"core.server_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.rng_seed_us_per_device", "us"},
	{"core.collect_share", "ratio"},
	{"core.integrity_share", "ratio"},
	{"core.devices_per_query", "count"},
	{"core.deposits_per_query", "count"},
	{"core.tuples_per_query", "count"},
	{"core.partitions_per_query", "count"},
	{"core.ptds_per_query", "count"},
	{"core.reassignments_per_query", "count"},
	{"core.timeouts_per_query", "count"},
	{"core.integrity_checks_per_query", "count"},
	{"core.coverage_ratio", "ratio"},
	{"ssi.deposit_ms", "ms"},
	{"ssi.partition_ms", "ms"},
	{"ssi.read_ms", "ms"},
	{"ssi.other_ms", "ms"},
	{"ssi.calls_per_query", "count"},
	{"ssi.deposits_per_query", "count"},
	{"ssi.rejected_per_query", "count"},
	{"ssi.partitions_per_query", "count"},
	{"ssi.busy_share", "ratio"},
	{"tds.collect_us_per_device", "us"},
	{"tds.tuples_per_device", "count"},
	{"tds.aggregate_us_per_partition", "us"},
	{"tdscrypto.ndet_enc_ns_per_tuple", "ns"},
	{"tdscrypto.det_enc_ns_per_tuple", "ns"},
	{"tdscrypto.decrypt_ns_per_tuple", "ns"},
	{"tdscrypto.commit_ns_per_deposit", "ns"},
	{"tdscrypto.est_ms_per_query", "ms"},
	{"sqlparse.parse_us", "us"},
	{"sqlexec.compile_us", "us"},
	{"sqlexec.collect_local_us_per_device", "us"},
	{"sqlexec.fold_ns_per_row", "ns"},
	{"sqlexec.merge_ns_per_group", "ns"},
	{"sqlexec.est_ms_per_query", "ms"},
	{"querier.build_post_us", "us"},
	{"protocol.deposit_seal_ns", "ns"},
	{"protocol.deposit_check_ns", "ns"},
	{"protocol.est_ms_per_query", "ms"},
	{"storage.row_encode_ns_per_row", "ns"},
	{"storage.row_decode_ns_per_row", "ns"},
	{"storage.est_ms_per_query", "ms"},
	{"obs.trace_events_per_query", "count"},
	{"obs.journal_events_per_query", "count"},
	{"obs.event_ns", "ns"},
	{"obs.est_ms_per_query", "ms"},
	{"workload.household_us_per_device", "us"},
	{"faultplan.for_ns_per_device", "ns"},
	{"faultplan.faulted_devices_per_query", "count"},
	{"costmodel.tq_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.layer_coverage_ratio", "ratio"},
}

// minSamples is the sample-count rule: a p90 needs at least ten samples
// beyond it, so a window that completed fewer queries fails the run.
const minSamples = 100

// percentile is the nearest-rank percentile of sorted samples, q in (0, 1].
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// wallPercentiles returns p50 and p90 of the window's samples, or an
// error when the sample-count rule is not met.
func wallPercentiles(samples []float64) (p50, p90 float64, err error) {
	if len(samples) < minSamples {
		return 0, 0, fmt.Errorf("only %d samples in the window, need %d for a p90", len(samples), minSamples)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 0.50), percentile(s, 0.90), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pairedDiff returns a[i]-b[i]; stage brackets take the median of these,
// so a slow outlier in one run of a pair does not shift the estimate.
func pairedDiff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
