package main

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
)

// burnIters is the sensitivity control's per-transaction spin: about one
// microsecond of the reference loop on the 2-core reference host.
const burnIters = 500

// cmdSensitivity is the known-slowdown control: micro-spec rerun with a
// completion hook that burns a fixed iteration count per transaction. The
// host metric must fall by about the burn's measured cost and every
// deterministic metric must not move at all — evidence that the estimator
// responds to a real per-transaction cost and to nothing else.
func cmdSensitivity(args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "budget per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, _ := workloadByName("micro-spec")
	b := budget{workload: w, seed: *seed, seconds: *seconds}
	base, err := spawn(b.child(1))
	if err != nil {
		return err
	}
	cfg := b.child(1)
	cfg.BurnIters = burnIters
	burned, err := spawn(cfg)
	if err != nil {
		return err
	}
	predicted := 1e9 / (base.NsPerTxn.Fast + burned.BurnNs)
	baseRate, burnedRate := 1e9/base.NsPerTxn.Fast, 1e9/burned.NsPerTxn.Fast
	fmt.Printf("burn: %d iterations of the reference loop per completed transaction, measured %.1f ns per call\n", burnIters, burned.BurnNs)
	fmt.Printf("%-22s %14s %14s\n", "", "control", "with burn")
	fmt.Printf("%-22s %14.1f %14.1f\n", "host ns/txn (fast)", base.NsPerTxn.Fast, burned.NsPerTxn.Fast)
	fmt.Printf("%-22s %14.0f %14.0f   predicted %.0f (%.1f%% of control), measured %.1f%%\n", "host_txn_per_s",
		baseRate, burnedRate, predicted, 100*predicted/baseRate, 100*burnedRate/baseRate)
	be, ue := endToEndValues(base, 0), endToEndValues(burned, 0)
	for _, name := range []string{"vtxn_per_s", "vp99_us", "allocs_per_txn", "alloc_bytes_per_txn"} {
		fmt.Printf("%-22s %14.4f %14.4f\n", name, be[name], ue[name])
	}

	failures := append(append([]string(nil), base.Failures...), burned.Failures...)
	failures = append(failures, sameVirtualResults(base, burned)...)
	if rel := math.Abs(ue["allocs_per_txn"]/be["allocs_per_txn"] - 1); rel > 1e-4 {
		failures = append(failures, fmt.Sprintf("allocs_per_txn moved by %.4f%%", 100*rel))
	}
	if burnedRate > 0.9*baseRate {
		failures = append(failures, "host_txn_per_s fell by less than its 10% regression threshold")
	}
	if len(failures) > 0 {
		return fmt.Errorf("sensitivity control failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("ok: the host metric saw the burn; every virtual metric and exact count is identical")
	return nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which is
// what the driver uses to judge spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		v := math.NaN()
		if m == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// fingerprint is what must differ between any two workloads: two that agree
// on all three are the same configuration under two names.
type fingerprint struct{ vtxn, eventsPerTxn, allocsPerTxn float64 }

func fingerprintOf(s sample) fingerprint {
	return fingerprint{s.Vtxn, s.Counts["sim.events_per_txn"], ratio(float64(s.Mallocs), float64(s.Txns))}
}

// checkDistinct fails if two workloads report the same fingerprint.
func checkDistinct(prints map[string]fingerprint) error {
	names := make([]string, 0, len(prints))
	for n := range prints {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, a := range names {
		for _, b := range names[i+1:] {
			if prints[a] == prints[b] {
				return fmt.Errorf("workloads %s and %s report the same (vtxn_per_s, sim.events_per_txn, allocs_per_txn) = %v", a, b, prints[a])
			}
		}
	}
	return nil
}

// cmdNoise runs every workload's end-to-end measurement runs times in each
// of sets sets (seed+i for run i, the same seeds in every set) and prints,
// per workload and metric, each set's quartiles and the distance between the
// sets' medians against the metric's bound — the same comparison the driver
// makes before it accepts the benchmark.
func cmdNoise(args []string) error {
	fs := flag.NewFlagSet("noise", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "sets of runs")
	runs := fs.Int("runs", 5, "runs per set")
	seed := fs.Int64("seed", defaultSeed, "first seed")
	seconds := fs.Float64("seconds", defaultSeconds, "budget per run")
	only := fs.String("workload", "", "one workload instead of all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prints := map[string]fingerprint{}
	for _, w := range workloads {
		if *only != "" && w.name != *only {
			continue
		}
		// values[metric][set] lists the runs' values.
		values := map[string][][]float64{}
		var calib [][]float64
		for s := 0; s < *sets; s++ {
			calib = append(calib, nil)
			for r := 0; r < *runs; r++ {
				rep, err := measureEndToEnd(budget{workload: w, seed: *seed + int64(r), seconds: *seconds})
				if err != nil {
					return err
				}
				if len(rep.failures) > 0 {
					return fmt.Errorf("%s seed %d: %s", w.name, *seed+int64(r), strings.Join(rep.failures, "; "))
				}
				for _, m := range rep.metrics {
					if values[m.def.Name] == nil {
						values[m.def.Name] = make([][]float64, *sets)
					}
					values[m.def.Name][s] = append(values[m.def.Name][s], m.value)
				}
				calib[s] = append(calib[s], rep.calibNs)
				prints[w.name] = rep.fingerprint
			}
		}
		fmt.Printf("\n### %s\n\n", w.name)
		fmt.Println("| metric | bound | set | q1 | median | q3 | IQR/median | median vs set 1 |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			var first float64
			for s, vs := range values[d.Name] {
				q1, q2, q3 := quartiles(vs)
				if s == 0 {
					first = q2
				}
				fmt.Printf("| %s | %.0f%% | %d | %.6g | %.6g | %.6g | %.2f%% | %+.2f%% |\n",
					d.Name, 100*d.Bound, s+1, q1, q2, q3, 100*(q3-q1)/q2, 100*(q2/first-1))
			}
		}
		for s, vs := range calib {
			fmt.Printf("\nhost.calib_ns per run, set %d:", s+1)
			for _, v := range vs {
				fmt.Printf(" %.0f", v)
			}
		}
		fmt.Println()
	}
	if *only == "" {
		if err := checkDistinct(prints); err != nil {
			return err
		}
		fmt.Println("\nall workloads are pairwise distinct by (vtxn_per_s, sim.events_per_txn, allocs_per_txn)")
	}
	return nil
}
