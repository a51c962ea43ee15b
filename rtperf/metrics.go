package main

// namedUnits are each workload's own end-to-end numbers, under the
// names README.md uses. An untraced run prints its workload's in the
// detail line; a traced run reports all of them among its metrics,
// from the untraced pass it makes of each workload.
var namedUnits = map[string]string{
	"call_rate_1":        "1/s",
	"call_rate_n":        "1/s",
	"call_rate_n_shared": "1/s",
	"call_p99_us":        "us",
	"rpc_rate":           "1/s",
	"rpc_mb_per_s":       "MB/s",
	"rpc_p50_us":         "us",
	"rpc_p99_us":         "us",
	"async_p50_us":       "us",
	"async_p99_us":       "us",
	"async_crit_p99_us":  "us",
	"async_goodput_rps":  "1/s",
}

// layerUnits are the per-layer metrics of a traced run. README.md maps
// each to the end-to-end metric it should move.
var layerUnits = map[string]string{
	// client / owner (callpath)
	"client.self_ns_p50":     "ns",
	"client.self_ns_p99":     "ns",
	"client.handler_ns_p50":  "ns",
	"client.placement_ratio": "ratio",
	// shard descriptor pool (rpc and async-lanes)
	"shard.cds_created": "count",
	// deadline / wheel (rpc)
	"deadline.self_ns_p50":     "ns",
	"deadline.self_ns_p99":     "ns",
	"deadline.expirations":     "count",
	"deadline.quarantined_max": "count",
	// payload / arena / offload (rpc)
	"payload.alloc_ns_p50":      "ns",
	"payload.attach_ns_p50.64b": "ns",
	"payload.attach_ns_p50.4k":  "ns",
	"payload.attach_ns_p50.64k": "ns",
	"payload.attach_ns_p50.1m":  "ns",
	"payload.view_ns_p99.64k":   "ns",
	"payload.view_ns_p99.1m":    "ns",
	"arena.grows":               "count",
	"offload.bytes":             "bytes",
	"offload.depth_max":         "count",
	// batch (rpc)
	"batch.flush_ns_p50": "ns",
	// ring / lane / tenant / worker / watchdog (async-lanes)
	"lane.submit_ns_p50":          "ns",
	"lane.submit_ns_p99":          "ns",
	"lane.wait_us_p99.critical":   "us",
	"lane.wait_us_p99.normal":     "us",
	"lane.wait_us_p99.besteffort": "us",
	"worker.wake_us_p50":          "us",
	"worker.busy_frac":            "ratio",
	"lane.refused.critical":       "count",
	"lane.refused.normal":         "count",
	"lane.refused.besteffort":     "count",
	"lane.backpressure":           "count",
	"lane.depth_max":              "count",
	"tenant.throttled":            "count",
	"watchdog.replacements":       "count",
	"gen.late_us_p99":             "us",
}
