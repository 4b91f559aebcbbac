package bench

import (
	"fmt"

	"specdb"
)

// The paper evaluates its schemes only under closed-loop uniform load, where
// a saturated system slows its own arrival rate and tail latency is
// invisible. These experiments probe the regime the later literature
// (Larson et al., STAR) reports: open-loop arrivals sweeping the offered
// load through saturation, and Zipfian key popularity concentrating writes
// on hot keys. Every cell's NDJSON row carries p50/p95/p99 alongside
// throughput.

// LatencyOpenLoop sweeps open-loop offered load across the schemes,
// reporting delivered throughput with latency percentiles per cell: below
// the knee all schemes serve the offered rate and differ only in latency;
// past it the pending queues fill, p99 explodes, and shedding begins.
func LatencyOpenLoop() Experiment {
	return Experiment{
		ID:    "latency-openloop",
		Title: "Open-Loop Tail Latency vs Offered Load",
		Ref:   "beyond the paper: open-loop methodology",
		XAxis: "offered load (txn/s)",
		YAxis: "transactions/second (cells carry p50/p95/p99 µs)",
		Run: func(o Opts) []Series {
			rates := []float64{5000, 10000, 15000, 20000, 25000, 30000, 40000}
			if o.Coarse {
				rates = []float64{5000, 15000, 25000, 40000}
			}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cells, err := specdb.Sweep{
				Name: "latency-openloop",
				Base: microOpts(o, microCfg{mpFrac: 0.1}),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.RateAxis(rates, specdb.OpenLoopConfig{Window: 4}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: latency-openloop: %v", err))
			}
			return schemeSeries(cells, schemes)
		},
	}
}

// ZipfSkew sweeps Zipfian key popularity (YCSB-style theta) over the shared
// key population with closed-loop clients: uniform private keys at theta 0,
// increasingly contended hot keys toward 0.99. Locking pays for conflicts
// with deadlock kills and retries, speculation with cascades — the
// percentile columns show where each starts hurting.
func ZipfSkew() Experiment {
	return Experiment{
		ID:    "zipf-skew",
		Title: "Zipfian Key Skew",
		Ref:   "beyond the paper: skewed popularity",
		XAxis: "zipf theta",
		YAxis: "transactions/second (cells carry p50/p95/p99 µs)",
		Run: func(o Opts) []Series {
			thetas := []float64{0, 0.5, 0.8, 0.9, 0.99}
			if o.Coarse {
				thetas = []float64{0, 0.8, 0.99}
			}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cells, err := specdb.Sweep{
				Name: "zipf-skew",
				Base: microOpts(o, microCfg{mpFrac: 0.1}),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("key-skew", thetas, func(theta float64) []specdb.Option {
						c := microCfg{mpFrac: 0.1, keySkew: theta}
						return []specdb.Option{microWorkload(c)}
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: zipf-skew: %v", err))
			}
			return schemeSeries(cells, schemes)
		},
	}
}
