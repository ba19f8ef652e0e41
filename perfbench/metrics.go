package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"bytes_per_op", "B", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
	{"samples_per_ball", "count", "lower"},
	{"max_load_excess", "balls", "lower"},
}

// layerDef is a per-layer metric with the workloads it is read on:
// a traced run reports it from its own workload when listed here, and
// otherwise from the first listed one. Ladder entries list none: they
// run on every workload's script.
type layerDef struct {
	metricDef
	on []string
}

var perLayer = []layerDef{
	{metricDef{"rng.ns_per_draw", "ns", "lower"}, nil},
	{metricDef{"protocol.hist_ns_per_ball", "ns", "lower"}, nil},
	{metricDef{"ballsbins.allocator_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"ballsbins.allocator_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"ballsbins.sharded_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"serve.dispatch_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"serve.dispatch_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"serve.dispatch_bytes_per_op", "B", "lower"}, nil},
	{metricDef{"serve.handler_us_p50", "us", "lower"}, []string{wlServeWire}},
	{metricDef{"serve.handler_us_p99", "us", "lower"}, []string{wlServeWire}},
	{metricDef{"serve.queue_us_p50", "us", "lower"}, []string{wlServeWire}},
	{metricDef{"serve.apply_us_p50", "us", "lower"}, []string{wlServeWire}},
	{metricDef{"serve.combining_factor", "req/batch", "higher"}, []string{wlServeWire}},
	{metricDef{"wire.codec_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"wire.codec_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"wire.transport_us_p50", "us", "lower"}, []string{wlServeWire, wlKeyed}},
	{metricDef{"wire.transport_us_p99", "us", "lower"}, []string{wlServeWire, wlKeyed}},
	{metricDef{"wire.client_coalescing", "req/write", "higher"}, []string{wlServeWire, wlKeyed}},
	{metricDef{"wire.server_batched_per_write", "frames/write", "higher"}, []string{wlServeWire, wlKeyed}},
	{metricDef{"wire.bytes_per_op", "B", "lower"}, []string{wlServeWire, wlKeyed}},
	{metricDef{"keyed.route_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"keyed.route_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"keyed.hit_ratio", "ratio", "higher"}, []string{wlKeyed}},
	{metricDef{"keyed.probes_per_route", "count", "lower"}, []string{wlKeyed}},
	{metricDef{"wal.append_us_p50", "us", "lower"}, nil},
	{metricDef{"wal.append_us_p99", "us", "lower"}, nil},
	{metricDef{"wal.records_per_op", "count", "lower"}, []string{wlKeyed}},
	{metricDef{"wal.bytes_per_op", "B", "lower"}, []string{wlKeyed}},
	{metricDef{"wal.replay_records_per_s", "records/s", "higher"}, []string{wlKeyed}},
	{metricDef{"cluster.handler_us_p50", "us", "lower"}, []string{wlKeyed, wlProxyHTTP}},
	{metricDef{"cluster.handler_us_p99", "us", "lower"}, []string{wlKeyed, wlProxyHTTP}},
	{metricDef{"cluster.route_self_us_p50", "us", "lower"}, []string{wlKeyed}},
	{metricDef{"cluster.backend_us_p50", "us", "lower"}, []string{wlKeyed, wlProxyHTTP}},
	{metricDef{"cluster.backend_us_p99", "us", "lower"}, []string{wlKeyed, wlProxyHTTP}},
	{metricDef{"cluster.router_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"cluster.router_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"cluster.probes_per_place", "count", "lower"}, []string{wlProxyHTTP}},
	{metricDef{"cluster.pick_staleness_ms_p50", "ms", "lower"}, []string{wlProxyHTTP}},
	{metricDef{"serve.http_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"serve.http_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"cluster.http_ns_per_op", "ns", "lower"}, nil},
	{metricDef{"cluster.http_allocs_per_op", "count", "lower"}, nil},
	{metricDef{"cluster.http_client_transport_us_p50", "us", "lower"}, []string{wlProxyHTTP}},
	{metricDef{"cluster.http_backend_transport_us_p50", "us", "lower"}, []string{wlProxyHTTP}},
}

// sourceOf returns the workload whose traced pass supplies d when the
// run's own workload is wl.
func (d layerDef) sourceOf(wl string) string {
	for _, w := range d.on {
		if w == wl {
			return w
		}
	}
	return d.on[0]
}
