// Command benchmark measures specdb on two clocks. Virtual time (the paper's
// transactions per second and tail latency) is a pure function of the
// configuration and the seed; host time (how long the simulator takes per
// transaction, what it allocates) is measured with an estimator built to
// repeat on a noisy shared machine. See README.md.
//
// Usage:
//
//	benchmark [run|trace] --workload NAME [--seed N] [--seconds S] [--quick]
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	benchmark layers
//	benchmark sensitivity [--seed N] [--seconds S]
//	benchmark noise [--sets 2] [--runs 5] [--seconds S]
//	benchmark manifest        (prints BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

const (
	defaultSeed    = 42
	defaultSeconds = 8
	// Set-up is timed in fresh processes, half of them before and half after
	// the steady state (whose process adds one more sample): on each side at
	// least minSetupSamples, and more — up to maxSetupSamples — while the
	// side has spent less than setupSideShare of the budget, so a 20 ms
	// set-up gets the many samples its noise needs and a 400 ms one does not
	// cost 10 s.
	minSetupSamples = 4
	maxSetupSamples = 12
	setupSideShare  = 0.075
	// minSegments keeps a quick run's quantiles meaningful: its segments get
	// shorter instead of fewer.
	minSegments = 30
	// profileHz is the CPU-profile rate the traced run asks for. Linux CPU
	// timers fire on the scheduler tick, so the reference host (250 Hz tick)
	// delivers at most 250 samples per CPU-second whatever is asked; asking
	// for more than the default 100 Hz is what gets a 4 s run past 800.
	profileHz         = 500
	minProfileSamples = 800
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run", "trace":
		err = cmdBench(cmd, args)
	case "layers":
		err = cmdLayers(args)
	case "sensitivity":
		err = cmdSensitivity(args)
	case "noise":
		err = cmdNoise(args)
	case "manifest":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case "child":
		err = cmdChild(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, trace, layers, sensitivity or noise)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// budget is the size of one invocation's work.
type budget struct {
	workload workloadDef
	seed     int64
	seconds  float64
}

// virtualMs is the measured window for a share of the budget.
func (b budget) virtualMs(share float64) int64 {
	return int64(math.Max(1, math.Round(b.seconds*share*b.workload.virtualMsPerSecond)))
}

func (b budget) segments(share float64) int {
	return int(max(minSegments, b.virtualMs(share)/b.workload.segmentMs))
}

func (b budget) child(share float64) childConfig {
	return childConfig{
		Workload:  b.workload.name,
		Seed:      b.seed,
		VirtualMs: b.virtualMs(share),
		Segments:  b.segments(share),
	}
}

func parseBudget(name string, args []string, trace *int) (budget, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "budget: the measured window is sized to take about this long on the reference host")
	quick := fs.Bool("quick", false, "1/20 of the work")
	if trace != nil {
		fs.IntVar(trace, "trace", *trace, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	}
	if err := fs.Parse(args); err != nil {
		return budget{}, err
	}
	w, ok := workloadByName(*workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return budget{}, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 {
		return budget{}, fmt.Errorf("--seconds must be positive")
	}
	if *quick {
		*seconds /= 20
	}
	return budget{workload: w, seed: *seed, seconds: *seconds}, nil
}

// report is one invocation's result: the metrics in reporting order plus the
// correctness verdict. The driver reads its last line.
type report struct {
	metrics   []metricValue
	attempted uint64
	failed    uint64
	failures  []string
	// calibNs and fingerprint are carried for the noise study.
	calibNs     float64
	fingerprint fingerprint
}

type metricValue struct {
	def   metricDef
	value float64
}

func (r *report) add(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.failures = append(r.failures, fmt.Sprintf("metric %s was not measured", d.Name))
			v = 0
		}
		r.metrics = append(r.metrics, metricValue{d, v})
	}
}

// print writes every metric by name and unit, then the one-line JSON result.
func (r *report) print() error {
	for _, m := range r.metrics {
		fmt.Printf("%-34s %18.6f %s\n", m.def.Name, m.value, m.def.Unit)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed + uint64(len(r.failures)),
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range r.metrics {
		out.Metrics[m.def.Name] = jsonMetric{m.value, m.def.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d check(s) failed", len(r.failures))
	}
	return nil
}

func cmdBench(cmd string, args []string) error {
	trace := 0
	if cmd == "trace" {
		trace = 1
	}
	b, err := parseBudget(cmd, args, &trace)
	if err != nil {
		return err
	}
	var r *report
	switch trace {
	case 0:
		r, err = measureEndToEnd(b)
	case 1:
		r, err = measureLayers(b, spawnLayers)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	return r.print()
}

// measureEndToEnd is the untraced run: set-up samples in fresh processes
// around one steady state.
func measureEndToEnd(b budget) (*report, error) {
	setup := b.child(1)
	setup.SetupOnly = true
	var setups []sample
	// A budget under four seconds (quick mode) affords one sample a side
	// per second of it.
	atLeast := max(1, min(minSetupSamples, int(b.seconds)))
	sampleSetup := func() error {
		start := time.Now()
		for i := 0; i < maxSetupSamples; i++ {
			if i >= atLeast && time.Since(start).Seconds() > setupSideShare*b.seconds {
				break
			}
			s, err := spawn(setup)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	s, err := spawn(b.child(1))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	printSteady(b, s)
	setupS, totals := fastestSetup(setups)
	fmt.Printf("# setup_s: each stage's fastest time over %d fresh-process samples, summed (whole samples: fastest %.4f s, median %.4f s, slowest %.4f s)\n",
		len(setups), quantile(totals, 0), quantile(totals, 0.5), quantile(totals, 1))

	r := &report{
		attempted: s.Attempted, failed: s.Shed, failures: s.Failures,
		calibNs: (s.CalibStartNs + s.CalibEndNs) / 2, fingerprint: fingerprintOf(s),
	}
	r.add(endToEnd, endToEndValues(s, setupS))
	return r, nil
}

// fastestSetup estimates the undisturbed set-up time from several processes
// that each did the identical set-up: every stage (Open + load, then each
// slice of the warm-up) is taken at the fastest any process ran it, and the
// stages are summed. A whole set-up is too long to pass undisturbed on a busy
// host; a stage of a few milliseconds often does, so this repeats where the
// fastest whole sample does not. It also returns the whole-sample times.
func fastestSetup(samples []sample) (seconds float64, totals []float64) {
	var fastest []float64
	for _, s := range samples {
		totals = append(totals, s.SetupS)
		for i, t := range s.SetupStages {
			if i == len(fastest) {
				fastest = append(fastest, t)
			}
			fastest[i] = math.Min(fastest[i], t)
		}
	}
	for _, t := range fastest {
		seconds += t
	}
	return seconds, totals
}

func endToEndValues(s sample, setupS float64) map[string]float64 {
	txns := float64(s.Txns)
	return map[string]float64{
		"host_txn_per_s":      ratio(1e9, s.NsPerTxn.Fast),
		"allocs_per_txn":      ratio(float64(s.Mallocs), txns),
		"alloc_bytes_per_txn": ratio(float64(s.AllocBytes), txns),
		"live_heap_mb":        float64(s.LiveHeapBytes) / 1e6,
		"setup_s":             setupS,
		"vtxn_per_s":          s.Vtxn,
		"vp99_us":             s.VP99Us,
	}
}

func printSteady(b budget, s sample) {
	fmt.Printf("# workload %s seed %d: %d virtual ms in %d segments, %d transactions, %.2f s wall\n",
		s.Workload, s.Seed, s.VirtualMs, s.NsPerTxn.N, s.Txns, s.WallS)
	fmt.Printf("# host ns/txn over segments: fastest 1%% %.1f (reported), median %.1f, p90 %.1f\n",
		s.NsPerTxn.Fast, s.NsPerTxn.Median, s.NsPerTxn.Slow)
	fmt.Printf("# attempted %d, shed %d, retries %d, scans %d; Result.P99 %.1f us; calib %.0f ns before, %.0f ns after\n",
		s.Attempted, s.Shed, s.Retries, s.Scans, s.ResultP99Us, s.CalibStartNs, s.CalibEndNs)
	if b.workload.openLoop {
		fmt.Println("# open loop: arrivals are events in virtual time, so the generator is never late (lateness 0 by construction)")
	} else {
		fmt.Printf("# closed loop: %d clients, one transaction in flight each\n", clients)
	}
}

// measureLayers is the traced run: the same fixed work twice — once as the
// untraced control, once under a CPU profile — then the unit-cost suite. Each
// half gets half the budget so the invocation takes as long as an untraced
// one. The unit-cost suite is the caller's (spawnLayers, or a stub in tests).
func measureLayers(b budget, unitCostSuite func() (map[string]float64, error)) (*report, error) {
	control, err := spawn(b.child(0.5))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir(), "profile-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := b.child(0.5)
	cfg.Profile = filepath.Join(dir, "cpu.pprof")
	cfg.ProfileHz = profileHz
	traced, err := spawn(cfg)
	if err != nil {
		return nil, err
	}
	printSteady(b, traced)

	r := &report{attempted: traced.Attempted, failed: traced.Shed}
	r.failures = append(r.failures, control.Failures...)
	r.failures = append(r.failures, traced.Failures...)
	r.failures = append(r.failures, sameVirtualResults(control, traced)...)

	prof, err := readProfile(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	shares, samples := layerShares(prof)
	fmt.Printf("# CPU profile: %d samples at %d Hz\n", samples, cfg.ProfileHz)
	if b.seconds >= defaultSeconds && samples < minProfileSamples {
		r.failures = append(r.failures, fmt.Sprintf("CPU profile has %d samples, want at least %d", samples, minProfileSamples))
	}

	values := map[string]float64{}
	for layer, share := range shares {
		values[layer+".cpu_share"] = share
	}
	txns := float64(traced.Txns)
	values["host.cpu_ns_per_txn"] = ratio(traced.CPUNs, txns)
	values["host.calib_ns"] = (traced.CalibStartNs + traced.CalibEndNs) / 2
	values["go.runtime.gc_cpu_share"] = ratio(traced.GCCPUSeconds*1e9, traced.CPUNs)
	values["go.runtime.gc_cycles_per_mtxn"] = ratio(float64(traced.GCCycles), txns) * 1e6
	values["trace.overhead_share"] = ratio(traced.NsPerTxn.Fast, control.NsPerTxn.Fast) - 1
	for k, v := range traced.Counts {
		values[k] = v
	}
	costs, err := unitCostSuite()
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		values[k] = v
	}
	r.add(perLayer(), values)
	return r, nil
}

// sameVirtualResults lists every virtual metric or exact count on which a
// run differs from its control. Tracing and the sensitivity burn act from
// outside the simulation, so any difference means the two runs did not do
// the same work.
func sameVirtualResults(control, other sample) []string {
	var diffs []string
	cmp := func(name string, a, b float64) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("run differs from its control on %s: %v vs %v", name, b, a))
		}
	}
	cmp("vtxn_per_s", control.Vtxn, other.Vtxn)
	cmp("vp99_us", control.VP99Us, other.VP99Us)
	cmp("attempted", float64(control.Attempted), float64(other.Attempted))
	cmp("completed", float64(control.Txns), float64(other.Txns))
	for _, d := range exactCountDefs {
		cmp(d.Name, control.Counts[d.Name], other.Counts[d.Name])
	}
	return diffs
}

// buildDir is where an invocation keeps its temporary files: inside the
// working directory, in the directory the build script also uses.
func buildDir() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}

// spawn runs one steady-state or set-up child and decodes its report.
func spawn(cfg childConfig) (sample, error) {
	var s sample
	arg, err := json.Marshal(cfg)
	if err != nil {
		return s, err
	}
	return s, runChildProcess(string(arg), &s)
}

// spawnLayers runs the unit-cost suite in a child.
func spawnLayers() (map[string]float64, error) {
	var costs map[string]float64
	return costs, runChildProcess("layers", &costs)
}

// runChildProcess re-executes this binary as `child arg` and decodes the
// JSON it prints. The child inherits the default GOMAXPROCS and GOGC; its
// stderr is shown only if it fails.
func runChildProcess(arg string, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "child", arg)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w\n%s", arg, err, stderr.String())
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("child %s: bad report: %w", arg, err)
	}
	return nil
}

func cmdChild(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("child wants one JSON argument")
	}
	if args[0] == "layers" {
		return json.NewEncoder(os.Stdout).Encode(runUnitCosts())
	}
	var cfg childConfig
	if err := json.Unmarshal([]byte(args[0]), &cfg); err != nil {
		return err
	}
	s, err := runChild(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

func cmdLayers(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("layers takes no arguments")
	}
	costs, err := spawnLayers()
	if err != nil {
		return err
	}
	for _, u := range unitCosts {
		for _, d := range u.defs() {
			fmt.Printf("%-34s %18.6f %s\n", d.Name, costs[d.Name], d.Unit)
		}
	}
	return nil
}
