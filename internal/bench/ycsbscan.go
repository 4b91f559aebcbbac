package bench

import (
	"fmt"

	"specdb"
)

// scanFractions is the ycsb-scan x-axis grid.
func scanFractions(o Opts) []float64 {
	if o.Coarse {
		return []float64{0, 0.5, 1.0}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1.0}
}

// scanAxis sweeps the scan fraction for one base configuration.
func scanAxis(base microCfg, grid []float64) specdb.Axis {
	return specdb.NumAxis("scan-fraction", grid, func(f float64) []specdb.Option {
		c := base
		c.scanFrac = f
		return []specdb.Option{microWorkload(c)}
	})
}

// YCSBScan is the scan workload (YCSB-E, beyond the paper): short Zipfian
// range scans mixed into the update microbenchmark, swept over the scan
// fraction for all five schemes. Every cell runs the ordered (B-tree) kv
// layout so the axis isolates concurrency control, not storage layout.
//
// The interesting comparisons: MVCC serves declared read-only scans from a
// snapshot and never blocks or aborts them; locking's shared range locks
// make writers into a scanned range wait instead of killing anyone; OCC
// pays phantom validation — a committed write landing in a scanned range
// kills the scanner at its commit check, so its curve collapses as scans
// lengthen relative to the update stream.
func YCSBScan() Experiment {
	return Experiment{
		ID:    "ycsb-scan",
		Title: "YCSB-E Short Range Scans",
		Ref:   "beyond the paper; YCSB workload E",
		XAxis: "scan transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			grid := scanFractions(o)
			schemes := []struct {
				name   string
				scheme specdb.Scheme
			}{
				{"Speculation", specdb.Speculation},
				{"Blocking", specdb.Blocking},
				{"Locking", specdb.Locking},
				{"MVCC", specdb.MVCC},
				{"OCC", specdb.OCC},
			}
			var out []Series
			for _, sc := range schemes {
				base := microCfg{scheme: sc.scheme, mpFrac: 0.1, keySkew: 0.99, scanLen: 20, ordered: true}
				cells, err := specdb.Sweep{
					Name: sc.name,
					Base: microOpts(o, base),
					Axes: []specdb.Axis{scanAxis(base, grid)},
				}.Run()
				if err != nil {
					panic(fmt.Sprintf("bench: ycsb-scan sweep %s: %v", sc.name, err))
				}
				s := Series{Name: sc.name}
				for _, cell := range cells {
					s.Points = append(s.Points, pointFor(cell.Xs[0]*100, cell.Result))
				}
				out = append(out, s)
			}
			return out
		},
	}
}
