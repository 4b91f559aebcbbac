package bench

import (
	"fmt"

	"specdb"
)

// ElasticSplit sweeps Zipfian partition skew with elastic repartitioning on:
// a four-partition cluster whose home-partition popularity concentrates on
// partition 0 as theta grows. At low skew the saturation trigger never fires
// and the cells match a static cluster; past the trigger's skew ratio the
// hot partition is split mid-run and the cell's dip_ms / rows_moved columns
// record what the cutover cost. The y column stays whole-run throughput, so
// the experiment reads as "what does a split buy (and cost) at this skew".
func ElasticSplit() Experiment {
	return Experiment{
		ID:    "elastic-split",
		Title: "Elastic Hot-Partition Split vs Partition Skew",
		Ref:   "beyond the paper: elasticity (cf. §2 static partition map)",
		XAxis: "partition zipf theta",
		YAxis: "transactions/second (cells carry dip_ms / rows_moved)",
		Run: func(o Opts) []Series {
			thetas := []float64{0, 0.5, 0.8, 0.9, 0.99}
			if o.Coarse {
				thetas = []float64{0, 0.9, 0.99}
			}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cells, err := specdb.Sweep{
				Name: "elastic-split",
				Base: append(microOpts(o, microCfg{parts: 4, mpFrac: 0.1}),
					specdb.WithElasticity(specdb.ElasticityConfig{})),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("part-skew", thetas, func(theta float64) []specdb.Option {
						c := microCfg{parts: 4, mpFrac: 0.1, partSkew: theta}
						return []specdb.Option{microWorkload(c)}
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: elastic-split: %v", err))
			}
			return schemeSeries(cells, schemes)
		},
	}
}
