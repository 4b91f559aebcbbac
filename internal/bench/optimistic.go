package bench

import (
	"fmt"

	"specdb"
)

// The optimistic engines (MVCC and OCC) trade pessimistic waiting for
// aborts: MVCC pays a per-version bookkeeping overhead to give declared
// read-only transactions abort-free snapshots, and OCC pays wasted execution
// for every transaction that fails backward validation. Neither trade is
// uniformly good, so these experiments chart the two crossovers the §6-style
// model predicts: MVCC overtakes the pessimistic schemes as the read
// fraction grows, and OCC falls behind locking as the conflict rate grows.

// MVCCCrossover sweeps the declared read-only fraction under a contended
// write mix. At read fraction 0 MVCC is all overhead — its versioned writes
// and timestamp kills buy nothing — while at high read fractions its
// snapshot reads never wait and never abort, and the other schemes keep
// paying for conflicts on the write side. The locking engine's lock-free
// fast path keeps it ahead until reads almost fully dominate: the measured
// crossover sits between read fractions 0.90 and 0.95, so the grid samples
// that corner densely.
func MVCCCrossover() Experiment {
	return Experiment{
		ID:    "mvcc-crossover",
		Title: "MVCC Read-Fraction Crossover",
		Ref:   "beyond the paper: multiversion read path",
		XAxis: "declared read-only fraction",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			fracs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98}
			if o.Coarse {
				fracs = []float64{0, 0.5, 0.9, 0.95}
			}
			base := microCfg{mpFrac: 0.2, conflict: 0.6, pinned: true}
			schemes := []specdb.Scheme{specdb.Blocking, specdb.Locking, specdb.MVCC, specdb.OCC}
			cells, err := specdb.Sweep{
				Name: "mvcc-crossover",
				Base: microOpts(o, base),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("read-fraction", fracs, func(r float64) []specdb.Option {
						c := base
						c.readFrac = r
						return []specdb.Option{microWorkload(c)}
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: mvcc-crossover: %v", err))
			}
			return schemeSeries(cells, schemes)
		},
	}
}

// OCCRetry sweeps the hot-key conflict probability. OCC starts ahead — no
// lock table, no coordinator queues — but every conflict it admits is a full
// execution thrown away at validation and resent by the client, so its curve
// decays roughly twice as fast as locking's, whose conflicts only wait.
func OCCRetry() Experiment {
	return Experiment{
		ID:    "occ-retry",
		Title: "OCC Retry Cost vs Conflict Rate",
		Ref:   "beyond the paper: optimistic validation",
		XAxis: "hot-key conflict probability",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			probs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
			if o.Coarse {
				probs = []float64{0, 0.4, 0.8}
			}
			base := microCfg{mpFrac: 0.3, pinned: true}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Locking, specdb.OCC}
			cells, err := specdb.Sweep{
				Name: "occ-retry",
				Base: microOpts(o, base),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("conflict-prob", probs, func(p float64) []specdb.Option {
						c := base
						c.conflict = p
						return []specdb.Option{microWorkload(c)}
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: occ-retry: %v", err))
			}
			return schemeSeries(cells, schemes)
		},
	}
}
