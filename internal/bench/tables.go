package bench

import (
	"fmt"

	"specdb"
	"specdb/internal/costs"
	"specdb/internal/model"
	"specdb/internal/sim"
)

// Table1 regenerates the §5.7 best-scheme summary: a grid over workload
// properties, each cell reporting which scheme measured fastest. Series are
// abused slightly: each cell is a one-point series named like the paper's
// table cells.
func Table1() Experiment {
	return Experiment{
		ID:    "table1",
		Title: "Best concurrency control scheme by workload",
		Ref:   "§5.7, Table 1",
		XAxis: "cell",
		YAxis: "winner",
		Run: func(o Opts) []Series {
			type cell struct {
				name   string
				mp     float64
				abort  float64
				confl  float64
				rounds bool
			}
			var cells []cell
			for _, rounds := range []struct {
				name string
				two  bool
			}{{"few multi-round", false}, {"many multi-round", true}} {
				for _, mp := range []struct {
					name string
					f    float64
				}{{"many MP", 0.5}, {"few MP", 0.1}} {
					for _, ab := range []struct {
						name string
						p    float64
					}{{"few aborts", 0}, {"many aborts", 0.1}} {
						for _, cf := range []struct {
							name string
							p    float64
						}{{"few conflicts", 0}, {"many conflicts", 0.6}} {
							cells = append(cells, cell{
								name:   mp.name + ", " + rounds.name + ", " + ab.name + ", " + cf.name,
								mp:     mp.f,
								abort:  ab.p,
								confl:  cf.p,
								rounds: rounds.two,
							})
						}
					}
				}
			}
			// One sweep: workload-cell axis × scheme axis.
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cellAxis := specdb.Axis{Name: "workload"}
			for i, c := range cells {
				cfg := microCfg{
					mpFrac:    c.mp,
					abortProb: c.abort,
					conflict:  c.confl,
					pinned:    c.confl > 0,
					twoRound:  c.rounds,
				}
				cellAxis.Points = append(cellAxis.Points, specdb.AxisPoint{
					Label: c.name,
					X:     float64(i),
					Opts:  []specdb.Option{microWorkload(cfg)},
				})
			}
			grid, err := specdb.Sweep{
				Name: "table1",
				Base: microOpts(o, microCfg{}),
				Axes: []specdb.Axis{cellAxis, specdb.SchemeAxis(schemes...)},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: table1: %v", err))
			}
			var out []Series
			for i, c := range cells {
				vals := map[string]float64{}
				for j, scheme := range schemes {
					vals[schemeName(scheme)] = grid[i*len(schemes)+j].Result.Throughput
				}
				// Encode the winner in the series name; Y carries the
				// winning throughput.
				best := winner(vals)
				out = append(out, Series{
					Name:   c.name + " → " + best,
					Points: []Point{{X: 0, Y: vals[firstWord(best)]}},
				})
			}
			return out
		},
	}
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

// measuredParams extracts the Table 2 model variables from the simulator:
// configured quantities come straight from the cost model, tmp and tmpN are
// measured from dedicated runs (as the authors did on their testbed).
func measuredParams(o Opts) model.Params {
	cm := costs.Default()
	// The 12-key read/write transaction: 24 row operations, 12 writes.
	tsp := cm.Fragment(kvProcName, 24, 12, 0, false)
	tspS := cm.Fragment(kvProcName, 24, 12, 0, true)
	// Multi-partition fragment at one partition: 6 keys = 12 ops.
	tmpC := cm.Fragment(kvProcName, 12, 6, 0, true) + cm.Decision
	// l: surcharge of 24 lock-manager calls.
	locked := cm.Fragment(kvProcName, 24, 12, 24, true)
	l := float64(locked-tspS) / float64(tspS)
	// tmp measured: a pure multi-partition blocking workload commits one
	// transaction per tmp.
	r := runMicro(o, microCfg{scheme: specdb.Blocking, mpFrac: 1.0})
	tmp := sim.Time(0)
	if r.Throughput > 0 {
		tmp = sim.Time(float64(sim.Second) / r.Throughput)
	}
	return model.Params{Tsp: tsp, TspS: tspS, Tmp: tmp, TmpC: tmpC, L: l}
}

const kvProcName = "kv.readwrite"

// Table2 reports the model variables: paper measurement vs this system.
func Table2() Experiment {
	return Experiment{
		ID:    "table2",
		Title: "Analytical model variables",
		Ref:   "§6.4, Table 2",
		XAxis: "variable",
		YAxis: "µs (paper vs ours)",
		Run: func(o Opts) []Series {
			paper := model.PaperParams()
			ours := measuredParams(o)
			row := func(name string, p, g float64) Series {
				return Series{Name: name, Points: []Point{{X: p, Y: g}}}
			}
			return []Series{
				row("tsp (µs)", paper.Tsp.Micros(), ours.Tsp.Micros()),
				row("tspS (µs)", paper.TspS.Micros(), ours.TspS.Micros()),
				row("tmp (µs)", paper.Tmp.Micros(), ours.Tmp.Micros()),
				row("tmpC (µs)", paper.TmpC.Micros(), ours.TmpC.Micros()),
				row("tmpN = tmp - tmpC (µs)", paper.TmpN().Micros(), ours.TmpN().Micros()),
				row("l (%)", paper.L*100, ours.L*100),
			}
		},
	}
}
