package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"specdb"
	"specdb/internal/workload"
)

// childConfig is what the driver asks of one child process. Every steady
// state runs in a process of its own: a dropped TPC-C database is not
// returned to the operating system between in-process runs and the key
// intern tables are process-wide, so a second run in the same process would
// not start from the state the first one did.
type childConfig struct {
	Workload  string
	Seed      int64
	VirtualMs int64 // virtual length of the measured window
	Segments  int   // equal virtual-time slices the window is driven in
	SetupOnly bool  // stop after Open + load + warm-up
	Profile   string
	ProfileHz int
	BurnIters int // sensitivity control: spin this long on every completion
}

// sample is one child process's report.
type sample struct {
	Workload  string
	Seed      int64
	VirtualMs int64

	// SetupS is Open + load + warm-up, timed inside this process.
	SetupS float64
	// SetupStages splits SetupS into Open + load and the warm-up's equal
	// slices. Every process does identical work in each stage, so the driver
	// can take each stage's fastest time over all the samples.
	SetupStages []float64
	// CalibStartNs and CalibEndNs time the same fixed loop before set-up and
	// after the checks: a slow or throttled machine shows here.
	CalibStartNs, CalibEndNs float64

	// Host clock, steady state. NsPerTxn summarizes the per-segment wall
	// nanoseconds per completed transaction.
	NsPerTxn      spread
	WallS         float64
	CPUNs         float64 // user+system CPU of the process over the steady state
	Txns          uint64  // completions over the steady state
	Mallocs       uint64
	AllocBytes    uint64
	LiveHeapBytes uint64
	GCCPUSeconds  float64
	GCCycles      uint64
	BurnNs        float64 // measured cost of one burn call (sensitivity control)

	// Virtual clock, measured window. All of these are functions of the
	// configuration and the seed alone.
	Vtxn        float64
	VP99Us      float64 // mean of the per-segment p99
	ResultP99Us float64 // Result.P99 of the whole window (one 1.2× bucket edge)
	Attempted   uint64
	Shed        uint64
	Scans       uint64
	Retries     uint64
	// Counts are the exact per-layer counts, keyed by metric name.
	Counts map[string]float64

	// Failures lists failed guards and correctness checks.
	Failures []string
}

// xorshift is the fixed reference loop: a dependent chain the compiler cannot
// shorten, so its time is a function of the core's speed alone.
func xorshift(iters int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var sink uint64

const calibIters = 1 << 20

// calibrate times the reference loop, fastest of five.
func calibrate() float64 {
	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		t := time.Now()
		sink += xorshift(calibIters)
		best = math.Min(best, float64(time.Since(t).Nanoseconds()))
	}
	return best
}

func cpuNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcStats() (cpuSeconds float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// cumulative is the whole-run state the exact counts are differenced from.
type cumulative struct {
	m        specdb.Metrics
	executed uint64
	fastPath uint64
	redone   uint64
	tsAborts uint64
	kills    uint64
	acquires uint64
	waits    uint64
	logBytes uint64
}

func snapshotCumulative(db *specdb.DB) cumulative {
	c := cumulative{m: db.Peek()}
	res := db.Result()
	for _, st := range res.EngineStats {
		c.executed += st.Executed
		c.fastPath += st.FastPath
		c.redone += st.Redone
		c.tsAborts += st.TSOrderAborts
		c.kills += st.DeadlockKills + st.TimeoutKills
	}
	for _, st := range res.LockStats {
		c.acquires += st.Acquires
		c.waits += st.Waits
	}
	for p := range res.EngineStats {
		c.logBytes += uint64(len(db.LogBytes(specdb.PartitionID(p))))
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// exactCounts differences two cumulative snapshots into the per-layer counts.
// Utilizations are whole-run values (the 200 ms warm-up is already steady).
func exactCounts(a, b cumulative, res specdb.Result) map[string]float64 {
	d := func(x, y uint64) float64 { return float64(y - x) }
	txns := d(a.m.Completed, b.m.Completed)
	shed := d(a.m.Shed, b.m.Shed)
	utilMax := 0.0
	for _, u := range res.PartUtilization {
		utilMax = math.Max(utilMax, u)
	}
	return map[string]float64{
		"sim.events_per_txn":            ratio(d(a.m.Events, b.m.Events), txns),
		"sim.barriers_per_txn":          ratio(d(a.m.Barriers, b.m.Barriers), txns),
		"sim.xshard_msgs_per_txn":       ratio(d(a.m.CrossShardMsgs, b.m.CrossShardMsgs), txns),
		"client.retries_per_txn":        ratio(d(a.m.Retries, b.m.Retries), txns),
		"client.shed_share":             ratio(shed, txns+shed),
		"coordinator.mp_share":          ratio(d(a.m.CommittedMP, b.m.CommittedMP), d(a.m.Committed, b.m.Committed)),
		"coordinator.util":              res.CoordUtilization,
		"partition.executed_per_txn":    ratio(d(a.executed, b.executed), txns),
		"partition.util_max":            utilMax,
		"core.fastpath_share":           ratio(d(a.fastPath, b.fastPath), d(a.executed, b.executed)),
		"core.redone_per_txn":           ratio(d(a.redone, b.redone), txns),
		"mvcc.ts_aborts_per_txn":        ratio(d(a.tsAborts, b.tsAborts), txns),
		"locks.acquires_per_txn":        ratio(d(a.acquires, b.acquires), txns),
		"locks.wait_share":              ratio(d(a.waits, b.waits), d(a.acquires, b.acquires)),
		"locks.deadlock_kills_per_mtxn": ratio(d(a.kills, b.kills), txns) * 1e6,
		"btree.scan_txn_share":          ratio(float64(res.CommittedScan), float64(res.Committed)),
		"durable.log_bytes_per_txn":     ratio(d(a.logBytes, b.logBytes), txns),
	}
}

// runChild performs one child process's work and returns its report.
func runChild(cfg childConfig) (sample, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return sample{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.VirtualMs <= 0 || cfg.Segments <= 0 {
		return sample{}, fmt.Errorf("virtual length %d ms in %d segments: both must be positive", cfg.VirtualMs, cfg.Segments)
	}
	out := sample{Workload: cfg.Workload, Seed: cfg.Seed, VirtualMs: cfg.VirtualMs}
	if !cfg.SetupOnly {
		out.CalibStartNs = calibrate()
	}

	var hook onComplete
	if cfg.BurnIters > 0 {
		t := time.Now()
		const reps = 20000
		for i := 0; i < reps; i++ {
			sink += xorshift(cfg.BurnIters)
		}
		out.BurnNs = float64(time.Since(t).Nanoseconds()) / reps
		hook = func(int, *specdb.Invocation, *specdb.Reply) { sink += xorshift(cfg.BurnIters) }
	}

	measure := specdb.Time(cfg.VirtualMs) * specdb.Millisecond
	t0 := time.Now()
	db, err := w.open(cfg.Seed, measure, hook)
	if err != nil {
		return out, fmt.Errorf("open %s: %w", w.name, err)
	}
	last := t0
	stage := func() {
		now := time.Now()
		out.SetupStages = append(out.SetupStages, now.Sub(last).Seconds())
		last = now
	}
	stage()
	for i := 0; i < warmupSlices; i++ {
		db.RunFor(warmup / warmupSlices)
		stage()
	}
	out.SetupS = last.Sub(t0).Seconds()
	if cfg.SetupOnly {
		return out, nil
	}

	segNs := make([]float64, 0, cfg.Segments)
	p99 := make([]float64, 0, cfg.Segments)
	seg := measure / specdb.Time(cfg.Segments)
	before := snapshotCumulative(db)
	db.Snapshot() // start the first segment's latency interval at the window

	if cfg.Profile != "" {
		f, err := os.Create(cfg.Profile)
		if err != nil {
			return out, err
		}
		defer f.Close()
		// StartCPUProfile insists on 100 Hz; setting the rate first makes its
		// own call a no-op (it warns on stderr) and the profile runs at ours.
		runtime.SetCPUProfileRate(cfg.ProfileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			return out, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gcCPU0, gcCycles0 := gcStats()
	cpu0 := cpuNs()
	wall0 := time.Now()
	done := before.m.Completed
	for i := 0; i < cfg.Segments; i++ {
		d := seg
		if i == cfg.Segments-1 {
			d = warmup + measure - db.Now() // absorb the division remainder
		}
		t := time.Now()
		db.RunFor(d)
		ns := float64(time.Since(t).Nanoseconds())
		m := db.Snapshot()
		if n := m.Completed - done; n > 0 {
			segNs = append(segNs, ns/float64(n))
			p99 = append(p99, m.Interval.P99.Micros())
		}
		done = m.Completed
	}
	out.WallS = time.Since(wall0).Seconds()
	out.CPUNs = cpuNs() - cpu0
	gcCPU1, gcCycles1 := gcStats()
	runtime.ReadMemStats(&ms1)
	if cfg.Profile != "" {
		pprof.StopCPUProfile()
	}
	out.GCCPUSeconds, out.GCCycles = gcCPU1-gcCPU0, gcCycles1-gcCycles0
	out.Mallocs, out.AllocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc

	res := db.Result()
	after := snapshotCumulative(db)
	out.Txns = after.m.Completed - before.m.Completed
	if len(segNs) > 0 {
		out.NsPerTxn = summarize(segNs)
	}
	out.Vtxn = res.Throughput
	out.ResultP99Us = res.P99.Micros()
	for _, v := range p99 {
		out.VP99Us += v / float64(len(p99))
	}
	out.Shed = res.Shed
	out.Attempted = res.Committed + res.UserAborted + res.Shed
	out.Scans, out.Retries = res.CommittedScan, res.Retries
	out.Counts = exactCounts(before, after, res)

	// Live heap with the database still reachable: what the process needs,
	// not what the collector happened to leave behind.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.LiveHeapBytes = ms1.HeapAlloc

	if out.Txns == 0 || len(segNs) == 0 {
		out.Failures = append(out.Failures, "no transaction completed in the measured window")
	}
	if err := w.guard(db, res); err != nil {
		out.Failures = append(out.Failures, "guard: "+err.Error())
	}
	if err := quiesce(db); err != nil {
		out.Failures = append(out.Failures, err.Error())
	} else if err := w.check(db, res, db.Peek().Committed); err != nil {
		out.Failures = append(out.Failures, "check: "+err.Error())
	}
	runtime.KeepAlive(db)
	out.CalibEndNs = calibrate()
	return out, nil
}

// quiesce stops the load and drives the cluster until no transaction is in
// flight anywhere and the replicas have applied what the primaries sent.
func quiesce(db *specdb.DB) error {
	if err := db.SetWorkload(&workload.Limit{N: 0}); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	for i := 0; i < 10000 && !db.Quiescent(); i++ {
		db.RunFor(specdb.Millisecond)
	}
	if !db.Quiescent() {
		return fmt.Errorf("quiesce: transactions still in flight after 10 virtual seconds")
	}
	db.RunFor(10 * specdb.Millisecond)
	return nil
}
