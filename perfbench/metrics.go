package main

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"disk_accesses_per_op", "count", "lower"},
	{"seg_comps_per_op", "count", "lower"},
	{"node_comps_per_op", "count", "lower"},
	{"build_disk_accesses_per_seg", "count", "lower"},
	{"bytes_per_segment", "B", "lower"},
	{"heap_mb", "MB", "lower"},
}

// paperKinds are the six index kinds of the paper-study workload, named
// after the module and variant that implements each.
var paperKinds = []string{"rstar.rstar", "rstar.guttman", "rplus.hybrid", "rplus.kdb", "pmr", "grid"}

// paperQueries are the §6 query types, in Table 2 order.
var paperQueries = []string{"Point1", "Point2", "Nearest1", "Nearest2", "Polygon1", "Polygon2", "Range"}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer the workload does not cross reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"api.handler_us_p50", "us", "lower"},
		{"api.client_us_p50", "us", "lower"},
		{"api.response_bytes_per_op", "B", "lower"},
		{"api.cache_hit_ratio", "ratio", "higher"},
		{"router.query_us_p50", "us", "lower"},
		{"router.merge_us_p50", "us", "lower"},
		{"router.shards_per_op", "count", "lower"},
		{"segdb.window_us_p50", "us", "lower"},
		{"segdb.nearest_us_p50", "us", "lower"},
		{"segdb.incident_us_p50", "us", "lower"},
		{"segdb.other_endpoint_us_p50", "us", "lower"},
		{"segdb.polygon_us_p50", "us", "lower"},
		{"segdb.add_us_p50", "us", "lower"},
		{"segdb.delete_us_p50", "us", "lower"},
		{"segdb.compact_ms", "ms", "lower"},
		{"segdb.compactions", "count", "lower"},
		{"segdb.staged_hits_per_op", "count", "lower"},
		{"store.pool_hit_ratio", "ratio", "higher"},
		{"store.disk_reads_per_op", "count", "lower"},
		{"store.disk_writes_per_op", "count", "lower"},
		{"store.wal_bytes_per_write", "B", "lower"},
		{"store.decode_cache_hit_ratio", "ratio", "higher"},
		{"seg.comps_per_result", "count", "lower"},
	}
	for _, k := range paperKinds {
		d = append(d,
			metricDef{k + ".us_per_op", "us", "lower"},
			metricDef{k + ".disk_accesses_per_op", "count", "lower"},
			metricDef{k + ".build_disk_accesses_per_seg", "count", "lower"})
	}
	for _, q := range paperQueries {
		d = append(d,
			metricDef{"paper." + q + ".us_p50", "us", "lower"},
			metricDef{"paper." + q + ".disk_accesses_per_op", "count", "lower"})
	}
	return append(d,
		metricDef{"rpage.decode_ns_per_page.l0", "ns", "lower"},
		metricDef{"kernel.intersect_ns_per_node", "ns", "lower"},
		metricDef{"btree.decode_ns_per_leaf.l0", "ns", "lower"},
		metricDef{"btree.decode_ns_per_leaf.l1", "ns", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// layerValues collects a traced run's per-layer figures.
type layerValues map[string]float64

// metrics renders the values as a report's metrics, every per-layer
// name present (0 where the workload did not set it).
func (v layerValues) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// e2eValues collects an untraced run's end-to-end figures.
type e2eValues map[string]float64

func (v e2eValues) metrics() map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
