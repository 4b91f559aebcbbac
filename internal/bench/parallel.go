package bench

import (
	"fmt"

	"specdb"
)

// ParallelSpeedup measures the sharded parallel runtime (WithParallelism)
// on a fig4-style microbenchmark scaled out to larger clusters: each series
// fixes a partition count and sweeps the shard width across the x-axis.
//
// Y is virtual-time throughput, which the runtime's determinism contract
// requires to be identical at every width — a flat line is the correct
// result, and the committed baseline (BENCH_8.json) gates exactly that.
// What fanning the event loop over up to N goroutines costs or saves on the host is
// not visible here: the benchmark/ module's micro-sharded workload measures
// it (host_txn_per_s, host.cpu_ns_per_txn, sim.barriers_per_txn).
func ParallelSpeedup() Experiment {
	return Experiment{
		ID:    "parallel-speedup",
		Title: "Sharded Runtime: Width Invariance and Host Speedup",
		Ref:   "beyond the paper; deterministic parallel runtime",
		XAxis: "shards",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			widths := []int{1, 2, 4, 8}
			if o.Coarse {
				widths = []int{1, 2, 4}
			}
			var out []Series
			for _, parts := range []int{4, 8} {
				s := Series{Name: fmt.Sprintf("%d partitions", parts)}
				for _, w := range widths {
					oo := o
					oo.Shards = w
					r := runMicro(oo, microCfg{
						scheme: specdb.Speculation,
						mpFrac: 0.10,
						parts:  parts,
					})
					s.Points = append(s.Points, pointFor(float64(w), r))
				}
				out = append(out, s)
			}
			return out
		},
	}
}
