package main

// This file is the benchmark's vocabulary: the workload and metric names that
// BENCHMARK.json declares and every later claim refers to. bench_test.go
// checks the two against each other.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var workloadSpecs = []workloadSpec{
	{"build-cold", "37 programs through the guarded pipeline from empty caches: passes, superopt search, verifier and guard do the work, the keyed stores only take writes"},
	{"build-warm", "same requests against filled disk caches: journal replay, cache hits, export and merge do the work, no pass runs"},
	{"serve-fleet", "controller to two merlind workers over TCP at the shipped 8-packet chunk: per-RPC cost dominates, the VM is about 1% of the time"},
	{"serve-daemon-bulk", "one merlind worker, 4096-packet traffic RPCs: transport amortised, the worker's per-packet drive loop dominates"},
	{"serve-batch", "in-process ServeBatch over all 19 XDP programs: the vm fast engine does almost all the work, no transport"},
	{"serve-mirror", "same manager with a shadow candidate on every slot: each packet is copied, mirrored and gated through per-packet Serve"},
}

// exact is the bound of the metrics that repeat exactly on one tree: any
// drop larger than rounding is a regression.
const exact = 0.00001

// endToEnd metrics are reported by every workload. A unit of work is one
// program built (build-*) or one packet served (serve-*); an operation is
// one Submit, one traffic RPC, or one 256-packet sweep of one program
// through the in-process manager.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_p99_us", "us", "lower", 0.25},
	{"ni_reduction_pct", "%", "higher", exact},
	{"cycles_reduction_pct", "%", "higher", exact},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer metrics come from the traced run; layer = package name. A layer
// that is not on a workload's path reports 0 there. Times on the build path
// are per pass of the whole program set.
var perLayer = []metricSpec{
	{"ir.parse_ms", "ms", "lower", 0},
	{"ir.clone_ms", "ms", "lower", 0},
	{"irpass.inline_ms", "ms", "lower", 0},
	{"irpass.generic_ms", "ms", "lower", 0},
	{"irpass.dao_ms", "ms", "lower", 0},
	{"irpass.mof_ms", "ms", "lower", 0},
	{"irpass.dao_applied", "count", "higher", 0},
	{"irpass.mof_applied", "count", "higher", 0},
	{"codegen.compile_ms", "ms", "lower", 0},
	{"codegen.ni_baseline", "count", "lower", 0},
	{"analysis.dep_ms", "ms", "lower", 0},
	{"bopt.cpdce_ms", "ms", "lower", 0},
	{"bopt.slm_ms", "ms", "lower", 0},
	{"bopt.cc_ms", "ms", "lower", 0},
	{"bopt.po_ms", "ms", "lower", 0},
	{"bopt.cpdce_applied", "count", "higher", 0},
	{"bopt.slm_applied", "count", "higher", 0},
	{"bopt.cc_applied", "count", "higher", 0},
	{"bopt.po_applied", "count", "higher", 0},
	{"bopt.ni_out", "count", "lower", 0},
	{"superopt.search_ms", "ms", "lower", 0},
	{"superopt.hit_ms", "ms", "lower", 0},
	{"superopt.windows", "count", "lower", 0},
	{"superopt.searches", "count", "lower", 0},
	{"superopt.cache_hits", "count", "higher", 0},
	{"superopt.rewrites", "count", "higher", 0},
	{"superopt.useful_ratio", "ratio", "higher", 0},
	{"superopt.cache_open_ms", "ms", "lower", 0},
	{"superopt.cache_export_ms", "ms", "lower", 0},
	{"superopt.cache_merge_ms", "ms", "lower", 0},
	{"verifier.verify_ms", "ms", "lower", 0},
	{"verifier.npi_base", "count", "lower", 0},
	{"verifier.npi_opt", "count", "lower", 0},
	{"verifier.peak_states", "count", "lower", 0},
	{"guard.diff_ms", "ms", "lower", 0},
	{"guard.validate_ms", "ms", "lower", 0},
	{"guard.rollbacks", "count", "lower", 0},
	{"guard.inputs_ns_per_pkt", "ns", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"core.unattributed_ms", "ms", "lower", 0},
	{"core.fellback", "count", "lower", 0},
	{"buildsvc.key_us", "us", "lower", 0},
	{"buildsvc.submit_hit_us", "us", "lower", 0},
	{"buildsvc.submit_overhead_ms", "ms", "lower", 0},
	{"buildsvc.cache_open_ms", "ms", "lower", 0},
	{"buildsvc.cache_get_us", "us", "lower", 0},
	{"buildsvc.cache_put_us", "us", "lower", 0},
	{"buildsvc.built", "count", "lower", 0},
	{"buildsvc.cached", "count", "higher", 0},
	{"buildsvc.alloc_mb_per_pass", "MiB", "lower", 0},
	{"journal.append_sync_us", "us", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},
	{"fleet.tcp_dial_us", "us", "lower", 0},
	{"fleet.tcp_rpc_noop_us", "us", "lower", 0},
	{"fleet.tcp_rpc_noop_p99_us", "us", "lower", 0},
	{"fleet.route_us_per_chunk", "us", "lower", 0},
	{"fleet.rerouted", "count", "lower", 0},
	{"fleet.dropped", "count", "lower", 0},
	{"merlind.dispatch_us", "us", "lower", 0},
	{"merlind.drive_us_per_chunk", "us", "lower", 0},
	{"merlind.rss_mb", "MiB", "lower", 0},
	{"lifecycle.deploy_ms", "ms", "lower", 0},
	{"lifecycle.serve_ns_per_pkt", "ns", "lower", 0},
	{"lifecycle.servebatch_ns_per_pkt", "ns", "lower", 0},
	{"lifecycle.mirror_ns_per_pkt", "ns", "lower", 0},
	{"lifecycle.overhead_ns_per_pkt", "ns", "lower", 0},
	{"lifecycle.flush_us", "us", "lower", 0},
	{"lifecycle.allocs_per_pkt", "count", "lower", 0},
	{"vm.new_us", "us", "lower", 0},
	{"vm.run_ns_per_pkt", "ns", "lower", 0},
	{"vm.runbatch_ns_per_pkt", "ns", "lower", 0},
	{"vm.runbatch_baseline_ns_per_pkt", "ns", "lower", 0},
	{"vm.ref_ns_per_pkt", "ns", "lower", 0},
	{"vm.insns_per_pkt", "count", "lower", 0},
	{"vm.cycles_per_pkt", "count", "lower", 0},
	{"vm.fast_engine_share", "ratio", "higher", 0},
	{"metrics.counter_inc_ns", "ns", "lower", 0},
	{"metrics.write_text_us", "us", "lower", 0},
	{"serve.e2e_ns_per_pkt", "ns", "lower", 0},
	{"serve.unattributed_ns_per_pkt", "ns", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
