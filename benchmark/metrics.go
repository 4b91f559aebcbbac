package main

// The metric tables are the benchmark's declaration of what it reports;
// BENCHMARK.json repeats them for the driver and a test holds the two equal.

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd is what a user of the simulator sees: how fast the host runs a
// transaction, what it allocates and keeps, how long until it is ready, and
// the virtual throughput and tail latency it reports. Each bound is at least
// three times the widest interquartile range any workload showed over ten
// seeds on the build host (NOISE.md), capped at the driver's 25%.
var endToEnd = []metricDef{
	{Name: "host_txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_bytes_per_txn", Unit: "B", Better: "lower", Bound: 0.04},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "vtxn_per_s", Unit: "1/s", Better: "higher", Bound: 0.03},
	{Name: "vp99_us", Unit: "us", Better: "lower", Bound: 0.10},
}

// cpuLayers are the packages a CPU-profile sample can be charged to, in
// reporting order. occ is a layer too (it has a unit cost) but no workload
// runs it, so it has no share.
var cpuLayers = []string{
	"sim", "simnet", "client", "workload", "kvstore", "tpcc", "txn",
	"coordinator", "partition", "core", "mvcc", "locks", "undo", "storage",
	"btree", "durable", "replication", "metrics", "specdb",
}

const (
	layerRuntime = "go.runtime"
	layerOther   = "other"
)

// exactCountDefs are the per-layer counts exactCounts computes, in
// reporting order.
var exactCountDefs = []metricDef{
	{Name: "sim.events_per_txn", Unit: "count", Better: "lower"},
	{Name: "sim.barriers_per_txn", Unit: "count", Better: "lower"},
	{Name: "sim.xshard_msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "client.retries_per_txn", Unit: "count", Better: "lower"},
	{Name: "client.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "coordinator.mp_share", Unit: "ratio", Better: "lower"},
	{Name: "coordinator.util", Unit: "ratio", Better: "lower"},
	{Name: "partition.executed_per_txn", Unit: "count", Better: "lower"},
	{Name: "partition.util_max", Unit: "ratio", Better: "lower"},
	{Name: "core.fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "core.redone_per_txn", Unit: "count", Better: "lower"},
	{Name: "mvcc.ts_aborts_per_txn", Unit: "count", Better: "lower"},
	{Name: "locks.acquires_per_txn", Unit: "count", Better: "lower"},
	{Name: "locks.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "locks.deadlock_kills_per_mtxn", Unit: "count", Better: "lower"},
	{Name: "btree.scan_txn_share", Unit: "ratio", Better: "higher"},
	{Name: "durable.log_bytes_per_txn", Unit: "B", Better: "lower"},
}

// hostTraceDefs are the process-level numbers of the traced run.
var hostTraceDefs = []metricDef{
	{Name: "host.cpu_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "go.runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.runtime.gc_cycles_per_mtxn", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// perLayer returns every per-layer metric in reporting order: CPU shares,
// process-level numbers, exact counts, unit costs.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range append(append([]string(nil), cpuLayers...), layerRuntime, layerOther) {
		out = append(out, metricDef{Name: l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	out = append(out, hostTraceDefs...)
	out = append(out, exactCountDefs...)
	for _, u := range unitCosts {
		out = append(out, u.defs()...)
	}
	return out
}

// manifest is BENCHMARK.json: the benchmark's contract with the driver.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestBounded  `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestBounded struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestBounded{manifestMetric{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better})
	}
	return m
}
