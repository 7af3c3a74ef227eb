package main

// perLayer are the metrics of single layers, reported by the traced pass;
// layer = internal package name. A traced run of one workload reports every
// one of them: a layer the workload does not exercise reads 0. They have no
// bound. README.md says how each is measured and which end-to-end metric
// it should move on which workload.
var perLayer = layerMetrics()

var appNames = []string{"MLP0", "MLP1", "LSTM0", "LSTM1", "CNN0", "CNN1"}

func layerMetrics() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	ms := []metricDef{
		lower("bench.trace_overhead_pct", "%"),
		lower("bench.peak_rss_mb", "MiB"),

		// device_sim
		lower("tpu.new_us", "us"),
		higher("tpu.sim_cycles_per_host_us", "cycles/us"),
		lower("compiler.instructions_total", "count"),
		lower("perfmodel.max_err_pct", "%"),

		// queue_sim
		lower("perfmodel.estimate_us", "us"),
		lower("perfmodel.calls", "count"),
		lower("baseline.batch_seconds_us", "us"),
		lower("baseline.calls", "count"),
		lower("perfmodel.service_share", "%"),
		lower("latency.simulate_self_ms", "ms"),
		lower("latency.max_rate_calls", "count"),
		lower("latency.simulate_ns_per_req", "ns"),
		lower("serve.simulate_ns_per_req", "ns"),
		lower("serve.sim_shed", "count"),
		lower("serve.sim_expired", "count"),
		lower("stats.percentile_us_30k", "us"),

		// infer_batch
		lower("systolic.ns_per_mac", "ns"),
		lower("systolic.tile_pack_us", "us"),
		higher("systolic.kernel_share.wide", "%"),
		lower("compiler.quantize_compile_ms.wide", "ms"),
		lower("runtime.run_on_ms.wide", "ms"),
		lower("runtime.device_seconds_per_batch", "s"),

		// serve_closed
		lower("serve.req_p50_us", "us"),
		lower("serve.req_p99_us", "us"),
		lower("serve.submit_self_us", "us"),
		higher("serve.mean_batch", "req/batch"),
		lower("serve.shed", "count"),
		lower("serve.expired", "count"),
		lower("serve.sim_backend_rtt_us", "us"),
		lower("runtime.backend_run_us.MLP0", "us"),
		lower("runtime.backend_run_us.LSTM0", "us"),
		lower("runtime.backend_run_us.CNN0", "us"),
		lower("runtime.first_run_ms", "ms"),
		lower("runtime.run_on_us.tiny", "us"),

		// fleet_pod
		lower("des.bare_ns_per_event", "ns"),
		lower("des.bare_allocs_per_event", "objects"),
		lower("cluster.new_s", "s"),
		lower("cluster.router_add_us", "us"),
		lower("cluster.run_ns_per_event", "ns"),
		lower("cluster.over_des_x", "x"),
		lower("cluster.allocs_per_event", "objects"),
		lower("cluster.service_calls", "count"),
		lower("cluster.router_route_ns.bounded-hash", "ns"),
		lower("cluster.router_route_ns.least-loaded", "ns"),
		lower("cluster.router_route_ns.wrr", "ns"),

		// fleet_pod and fleet_ops: simulated counts, exact
		higher("cluster.events", "count"),
		higher("cluster.offered", "count"),
		higher("cluster.completed", "count"),
		lower("cluster.shed", "count"),
		lower("cluster.expired", "count"),
		lower("cluster.errors", "count"),
		lower("cluster.failovers", "count"),
		lower("cluster.retries", "count"),

		// fleet_ops
		lower("cluster.snapshot_ms", "ms"),
		lower("cluster.saturation_report_ms", "ms"),
		lower("cluster.prometheus_ms", "ms"),
		lower("cluster.telemetry_on_over_off_x", "x"),
		lower("cluster.parse_plan_us", "us"),
		lower("experiments.run_cluster_s", "s"),
		lower("experiments.run_cluster_chaos_s", "s"),
		lower("experiments.run_rollout_s", "s"),
	}
	for _, app := range appNames {
		ms = append(ms,
			lower("tpu.run_timing_us."+app, "us"),
			lower("tpu.sim_cycles."+app, "cycles"),
			lower("compiler.compile_shape_us."+app, "us"),
		)
	}
	return ms
}
