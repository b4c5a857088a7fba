package main

import "sort"

// metricSpec names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names (TestSchemaMatchesBenchmarkJSON).
type metricSpec struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"error_rate", "ratio"},
		{"loadgen.open_p50_ms", "ms"},
		{"loadgen.p90_ms", "ms"},
		{"loadgen.p99_ms", "ms"},
		{"virtual_login_ms", "ms"},
		{"vm.device_instrs_per_login", "count"},
		{"vm.node_instrs_per_login", "count"},
		{"vm.fast_share", "ratio"},
		{"dsm.migrations_per_login", "count"},
		{"dsm.syncs_per_login", "count"},
		{"dsm.trigger_sync_bytes", "bytes"},
		{"dsm.warmup_bytes_per_login", "bytes"},
		{"dsm.dirty_bytes_per_login", "bytes"},
		{"dsm.warm_hit_ratio", "ratio"},
	}
	for _, p := range virtualPhases {
		l = append(l, metricSpec{p.name, "ms"})
	}
	l = append(l,
		metricSpec{"obs.unattributed_virtual_ms", "ms"},
		metricSpec{"apps.env_build_ms", "ms"},
	)
	for _, layer := range cpuLayers {
		l = append(l, metricSpec{layer + ".cpu_us_per_op", "us"})
	}
	return append(l,
		metricSpec{"nodeproto.server_us.catalog", "us"},
		metricSpec{"nodeproto.server_us.reseal", "us"},
		metricSpec{"nodeproto.wire_us", "us"},
		metricSpec{"policy.check_us", "us"},
		metricSpec{"cor.vault_open_us", "us"},
		metricSpec{"store.fsyncs_per_write", "ratio"},
		metricSpec{"store.records_per_batch", "count"},
		metricSpec{"fleet.max_member_share", "ratio"},
		metricSpec{"nodeproto.replays_per_req", "ratio"},
		metricSpec{"runtime.gc_cpu_share", "ratio"},
		metricSpec{"loadgen.late_ms_p99", "ms"},
		metricSpec{"loadgen.wall_ops_per_s", "1/s"},
		metricSpec{"loadgen.wall_latency_ms", "ms"},
		metricSpec{"host.steal_share", "ratio"},
		metricSpec{"obs.trace_overhead", "ratio"},
	)
}()

// resultMetrics selects the metrics the result object carries: the
// end-to-end list untraced, the per-layer list traced. A per-layer metric
// the workload did not set reads 0; a missing end-to-end metric is a bug.
func resultMetrics(rep *report, traced bool) map[string]metric {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		if !ok {
			if !traced {
				rep.problem("end-to-end metric %s was not measured", s.name)
			}
			m = metric{Value: 0, Unit: s.unit}
		}
		if m.Unit != s.unit {
			rep.problem("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		}
		out[s.name] = m
	}
	return out
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
