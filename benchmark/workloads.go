package main

import (
	"fmt"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/workload"
)

// warmup is the virtual time every workload runs before the measured window;
// together with Open and the loader it is what setup_s times.
const warmup = 200 * specdb.Millisecond

// warmupSlices is how many equal RunFor calls drive the warm-up, each timed
// as one stage of the set-up.
const warmupSlices = 10

const (
	clients = 40
	kvKeys  = 12
)

// onComplete is the WithOnComplete hook signature; the sensitivity control
// installs one, every ordinary run passes nil.
type onComplete func(clientIdx int, inv *specdb.Invocation, reply *specdb.Reply)

// workloadDef is one benchmark workload: a fixed configuration whose only
// free inputs are the seed and the virtual length of the measured window.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// virtualMsPerSecond converts the --seconds budget into the virtual
	// duration of the measured window. It is a constant of the benchmark,
	// calibrated once on the 2-core reference host so that a budget of S
	// seconds takes about S wall seconds there while the host is quiet (two
	// to three times that while its neighbours are busy); it is never derived
	// from a measured wall time, so both sides of a comparison run identical
	// work.
	virtualMsPerSecond float64
	// segmentMs is the virtual length of one timed segment: long enough to
	// hold a few hundred transactions, so the mix of cheap and expensive
	// ones is nearly the same in every segment, and no longer, because the
	// shorter a segment is the more often one passes undisturbed.
	segmentMs int64
	// openLoop marks the one workload whose clients are an arrival process.
	openLoop bool
	open     func(seed int64, measure specdb.Time, hook onComplete) (*specdb.DB, error)
	// guard fails when the workload's own mechanism did not run: the option
	// did not take effect or its counter stayed zero (two workloads that
	// silently run the same configuration report the same numbers).
	guard func(db *specdb.DB, res specdb.Result) error
	// check verifies the stores after the cluster has been quiesced.
	check func(db *specdb.DB, res specdb.Result, completedTotal uint64) error
}

var workloads = []workloadDef{
	{
		name:               "micro-spec",
		why:                "paper 5.1 microbenchmark, 2 partitions, speculation, hash tables, plain scheduler, 70 virtual s: least work per txn, so kernel, message path and kvstore dominate; locks, btree, tpcc, durable idle",
		virtualMsPerSecond: 8800,
		segmentMs:          20,
		open: func(seed int64, measure specdb.Time, hook onComplete) (*specdb.DB, error) {
			return openMicro(seed, measure, hook, 2, &workload.Micro{Partitions: 2, KeysPerTxn: kvKeys, MPFraction: 0.10})
		},
		guard: func(db *specdb.DB, res specdb.Result) error {
			var spec uint64
			for _, st := range res.EngineStats {
				spec += st.Speculated
			}
			if spec == 0 || res.Parallel != nil || res.LockStats != nil {
				return fmt.Errorf("speculated=%d parallel=%v lockstats=%v: want speculation on the plain scheduler without locks", spec, res.Parallel != nil, res.LockStats != nil)
			}
			return nil
		},
		check: checkCounterSum,
	},
	{
		name:               "micro-sharded",
		why:                "same generator at 8 partitions on the sharded runtime (Shards=2), 25 virtual s: the only workload that pays window barriers and cross-shard exchange; micro-spec is its bypass control",
		virtualMsPerSecond: 3100,
		segmentMs:          10,
		open: func(seed int64, measure specdb.Time, hook onComplete) (*specdb.DB, error) {
			return openMicro(seed, measure, hook, 8, &workload.Micro{Partitions: 8, KeysPerTxn: kvKeys, MPFraction: 0.10},
				specdb.WithParallelism(specdb.ParallelismConfig{Shards: 2}))
		},
		guard: func(db *specdb.DB, res specdb.Result) error {
			if res.Parallel == nil || res.Parallel.Shards != 2 || res.Parallel.Barriers == 0 || res.Parallel.CrossShardMsgs == 0 {
				return fmt.Errorf("parallel stats %+v: want 2 shards with barriers and cross-shard traffic", res.Parallel)
			}
			return nil
		},
		check: checkCounterSum,
	},
	{
		name:               "tpcc-lock",
		why:                "TPC-C full mix, 8 warehouses on 2 partitions, locking, 5.4 virtual s: ~25x the work per txn in locks, B-tree and tpcc code; the only large growing working set and loader-dominated setup",
		virtualMsPerSecond: 680,
		segmentMs:          16,
		open:               openTPCC,
		guard: func(db *specdb.DB, res specdb.Result) error {
			var acquires uint64
			for _, st := range res.LockStats {
				acquires += st.Acquires
			}
			if acquires == 0 {
				return fmt.Errorf("no lock acquires: the locking engine did not run")
			}
			return nil
		},
		check: func(db *specdb.DB, res specdb.Result, _ uint64) error {
			stores := []*storage.Store{db.PartitionStore(0), db.PartitionStore(1)}
			return tpcc.CheckConsistency(tpccLayout, stores)
		},
	},
	{
		name:               "svc-scan-durable",
		why:                "open-loop Poisson 15k txn/s at ~2/3 capacity, MVCC, B-tree kv, 30% range scans, 2 replicas, command log, 20 virtual s: the only path through durable, replication, mvcc and open-loop clients",
		virtualMsPerSecond: 2500,
		segmentMs:          20,
		openLoop:           true,
		open: func(seed int64, measure specdb.Time, hook onComplete) (*specdb.DB, error) {
			gen := &workload.Micro{
				Partitions: 2, KeysPerTxn: kvKeys, MPFraction: 0.10,
				KeySkew: 0.5, ScanFraction: 0.30, ScanLength: 20,
			}
			return openMicro(seed, measure, hook, 2, gen,
				specdb.WithScheme(specdb.MVCC),
				specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
					kvstore.AddOrderedSchema(s)
					kvstore.Load(s, p, clients, kvKeys)
				}),
				specdb.WithReplicas(2),
				specdb.WithDurability(specdb.DurabilityConfig{}),
				specdb.WithOpenLoop(specdb.OpenLoopConfig{Rate: 15000, Window: 4}),
			)
		},
		guard: func(db *specdb.DB, res specdb.Result) error {
			logBytes := 0
			for p := 0; p < 2; p++ {
				logBytes += len(db.LogBytes(specdb.PartitionID(p)))
				if len(db.BackupStores(specdb.PartitionID(p))) != 1 {
					return fmt.Errorf("partition %d has %d backups, want 1", p, len(db.BackupStores(specdb.PartitionID(p))))
				}
			}
			if res.CommittedScan == 0 || logBytes == 0 {
				return fmt.Errorf("scans=%d log bytes=%d: want both non-zero", res.CommittedScan, logBytes)
			}
			return nil
		},
		check: func(db *specdb.DB, res specdb.Result, _ uint64) error {
			for p := 0; p < 2; p++ {
				pid := specdb.PartitionID(p)
				if err := storage.DiffStores(db.PartitionStore(pid), db.BackupStores(pid)[0]); err != nil {
					return fmt.Errorf("partition %d backup diverges: %w", p, err)
				}
			}
			return nil
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// openMicro opens a §5.1 key/value cluster: 40 clients, speculation and the
// hash layout unless extra overrides them (options apply in order).
func openMicro(seed int64, measure specdb.Time, hook onComplete, partitions int, gen *workload.Micro, extra ...specdb.Option) (*specdb.DB, error) {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	opts := []specdb.Option{
		specdb.WithPartitions(partitions),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithSeed(seed),
		specdb.WithWarmup(warmup),
		specdb.WithMeasure(measure),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, kvKeys)
		}),
		specdb.WithWorkload(gen),
	}
	if hook != nil {
		opts = append(opts, specdb.WithOnComplete(hook))
	}
	return specdb.Open(append(opts, extra...)...)
}

var tpccLayout = tpcc.Layout{Warehouses: 8, Partitions: 2}

func openTPCC(seed int64, measure specdb.Time, hook onComplete) (*specdb.DB, error) {
	scale := tpcc.DefaultScale()
	reg := specdb.NewRegistry()
	tpcc.RegisterAll(reg)
	loader := tpcc.Loader{Layout: tpccLayout, Scale: scale, Seed: seed}
	opts := []specdb.Option{
		specdb.WithPartitions(2),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Locking),
		specdb.WithSeed(seed),
		specdb.WithWarmup(warmup),
		specdb.WithMeasure(measure),
		specdb.WithRegistry(reg),
		specdb.WithCatalog(&specdb.Catalog{Meta: tpccLayout}),
		specdb.WithSetup(loader.Load),
		specdb.WithWorkload(&tpcc.Mix{
			Layout: tpccLayout, Scale: scale,
			RemoteItemProb: 0.01, RemotePaymentProb: 0.15,
		}),
	}
	if hook != nil {
		opts = append(opts, specdb.WithOnComplete(hook))
	}
	return specdb.Open(opts...)
}

// checkCounterSum is the kvstore invariant: every committed read/write
// transaction since t=0 incremented exactly kvKeys counters, so the counters
// must sum to kvKeys × committed once nothing is in flight.
func checkCounterSum(db *specdb.DB, res specdb.Result, committedTotal uint64) error {
	var sum int64
	for p := range res.EngineStats {
		sum += kvstore.Sum(db.PartitionStore(specdb.PartitionID(p)))
	}
	if want := int64(kvKeys) * int64(committedTotal); sum != want {
		return fmt.Errorf("counter sum %d, want %d (%d keys × %d committed)", sum, want, kvKeys, committedTotal)
	}
	return nil
}
