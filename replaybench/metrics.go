package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of artc or artcd sees, printed by an
// untraced run (-trace 0) for every workload. An operation is one trace
// pass (fsync-pipeline, components-sharded) or one artcd job
// (magritte-artcd); README.md defines each metric per workload.
var endToEnd = []metricDef{
	{"report_s", "s"},
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by a traced run
// (-trace 1) for every workload. Times come from the benchmark's own
// spans around calls into each module; counts from the module's
// exported counters after the call. Virtual times are simulated, not
// host, seconds.
var perLayer = []metricDef{
	{"trace.parse_s", "s"},
	{"trace.parse_mb_per_s", "MB/s"},
	{"trace.parse_allocs_per_record", "allocs/record"},

	{"artc.compile_s", "s"},
	{"core.analyze_s", "s"},
	{"core.build_graph_s", "s"},
	{"core.reduce_s", "s"},
	{"artc.compile_allocs_per_record", "allocs/record"},
	{"core.edges_enforced", "count"},
	{"core.edges_reduced", "count"},

	{"artc.init_s", "s"},
	{"artc.replay_s", "s"},
	{"artc.replay_sharded_s", "s"},
	{"artc.replay_allocs_per_action", "allocs/action"},
	{"artc.replay_bytes_per_action", "B/action"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},

	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.writebacks", "count"},
	{"cache.evictions", "count"},
	{"cache.resident_pages", "count"},
	{"stack.fsync_calls", "count"},
	{"cache.sync_scan_bound", "count"},

	{"storage.reads", "count"},
	{"storage.writes", "count"},
	{"storage.blocks_written", "count"},
	{"storage.busy_virtual_s", "virtual_s"},
	{"sim.virtual_s", "virtual_s"},
	{"artc.concurrency", "calls"},

	{"shard.partition_s", "s"},
	{"shard.components", "count"},
	{"shard.largest_share", "ratio"},
	{"par.cpu_utilization", "ratio"},

	{"artifact.get_s", "s"},
	{"artifact.put_s", "s"},
	{"artifact.bytes", "B"},
	{"serve.cache_hit_ratio", "ratio"},

	{"serve.upload_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.result_s", "s"},
	{"serve.queue_wait_s.replay", "s"},
	{"serve.queue_wait_s.export", "s"},
	{"serve.run_s.replay", "s"},
	{"serve.run_s.export", "s"},
	{"serve.compiles", "count"},
	{"serve.compiles_shared", "count"},
	{"serve.rejected", "count"},
	{"obs.export_bytes", "B"},

	{"bench.self_s", "s"},
	{"trace_overhead_ratio", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name.
type metricSet map[string]float64

// render keeps exactly the named definitions, reporting any missing.
func (m metricSet) render(defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}
