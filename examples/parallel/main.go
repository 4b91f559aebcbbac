// Parallel: fan the deterministic event loop out over shards and show that
// nothing changes — then show what the parallelism costs.
//
// WithParallelism splits the simulation into per-shard event loops, one OS
// thread each: every partition group (primary, its backups, its disk, its
// restarter) lives on one shard, clients are striped across shards, and the
// shards advance through conservative time windows of one lookahead horizon,
// exchanging cross-shard messages at a barrier between windows. Because
// events are ordered by a width-independent key — (time, sender, per-sender
// sequence) — the run is bit-identical at every shard count: same
// throughput, same event count, same latency percentiles.
//
// The demo runs an 8-partition cluster at widths 1, 2, 4 and 8 and prints
// the invariant columns next to the width-dependent ones (cross-shard
// messages, barrier overhead). It then shrinks the horizon to show the
// tradeoff: a shorter conservative window is more barriers for the same
// virtual time. On a many-core host the wider runs finish faster in wall
// clock; on a single core they cost a little extra synchronization — either
// way the numbers below never move.
package main

import (
	"fmt"
	"log"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/workload"
)

const (
	partitions = 8
	clients    = 40
	keysPerTxn = 8
)

func run(shards int, horizon specdb.Time) specdb.Result {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	db, err := specdb.Open(
		specdb.WithPartitions(partitions),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithSeed(42),
		specdb.WithWarmup(20*specdb.Millisecond),
		specdb.WithMeasure(100*specdb.Millisecond),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keysPerTxn)
		}),
		specdb.WithWorkloadFactory(func() specdb.Generator {
			return &workload.Micro{
				Partitions: partitions,
				KeysPerTxn: keysPerTxn,
				MPFraction: 0.1,
			}
		}),
		specdb.WithParallelism(specdb.ParallelismConfig{
			Shards:  shards,
			Horizon: horizon, // zero: one network one-way latency
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	return db.Run()
}

func main() {
	fmt.Println("8-partition microbenchmark, 10% multi-partition, seed 42")
	fmt.Println()
	fmt.Printf("%7s  %12s  %9s  %9s  %9s  %11s\n",
		"shards", "txns/s", "p99 µs", "events", "barriers", "cross-shard")
	for _, w := range []int{1, 2, 4, 8} {
		r := run(w, 0)
		p := r.Parallel
		fmt.Printf("%7d  %12.0f  %9.0f  %9d  %9d  %11d\n",
			w, r.Throughput, r.P99.Micros(), r.Events, p.Barriers, p.CrossShardMsgs)
	}
	fmt.Println()
	fmt.Println("txns/s, p99 and events are identical at every width: the sharded")
	fmt.Println("runtime is bit-deterministic. Only the cross-shard exchange volume")
	fmt.Println("depends on placement. Width is not yet a wall-clock speedup: on a")
	fmt.Println("shared 2-vCPU Intel Xeon VM, benchmark/'s micro-sharded runs at width 2")
	fmt.Println("at 0.77x its width-1 host txns/s (0.65x with one goroutine per shard")
	fmt.Println("and a coordinator that only waits).")
	fmt.Println()

	// The horizon knob: the conservative window is the lookahead the shards
	// may run ahead of each other. Shrinking it multiplies barriers (more
	// synchronization per virtual second) without changing any result.
	fmt.Printf("%12s  %12s  %9s\n", "horizon", "txns/s", "barriers")
	for _, h := range []specdb.Time{20 * specdb.Microsecond, 5 * specdb.Microsecond, specdb.Microsecond} {
		r := run(4, h)
		fmt.Printf("%12v  %12.0f  %9d\n", h, r.Throughput, r.Parallel.Barriers)
	}
}
