package specdb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"specdb/internal/kvstore"
	"specdb/internal/storage"
	"specdb/internal/workload"
)

// This file tests elastic repartitioning (WithElasticity): the saturation
// trigger splitting a hot partition under Zipfian partition skew, manual
// migrations, exactly-once execution and replica equivalence across a
// cutover, serializability of migrated histories under every scheme,
// determinism across seeds and shard widths, and composition with
// durability (logged migrations replayed by crash-restart).

const (
	elasticParts = 4
	elasticKeys  = 6
)

// elasticOpts builds a cluster with a hot partition 0: every transaction is
// single-partition and the home partition is Zipfian with partition 0
// hottest.
func elasticOpts(scheme Scheme, clients, perClient int, extra ...Option) []Option {
	opts := []Option{
		WithPartitions(elasticParts),
		WithClients(clients),
		WithScheme(scheme),
		WithSeed(11),
		WithRegistry(kvRegistry()),
		WithSetup(func(p PartitionID, s *Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, elasticKeys)
		}),
		WithWorkloadFactory(func() Generator {
			return &workload.Limit{
				// Partitions deliberately zero: SetShape fills it from the
				// cluster shape (see TestMicroSetShapeFillsPartitions).
				Gen: &workload.Micro{KeysPerTxn: elasticKeys, PartitionSkew: 0.95},
				N:   clients * perClient,
			}
		}),
	}
	return append(opts, extra...)
}

// keyLedger tracks, per key, how many transactions committed against it —
// the client-observed truth, keyed by key alone because a migration moves
// keys between partitions mid-run. At quiescence every key must live in
// exactly one partition's store with exactly the ledger's count.
type keyLedger struct {
	commits map[string]int64
}

func newKeyLedger() *keyLedger { return &keyLedger{commits: make(map[string]int64)} }

func (l *keyLedger) observe(inv *Invocation, reply *Reply) {
	if !reply.Committed {
		return
	}
	for _, keys := range inv.Args.(*kvstore.Args).Keys {
		for _, k := range keys {
			l.commits[k]++
		}
	}
}

// verify checks the union of all partition stores against the ledger: each
// key present exactly once, with the committed increment count.
func (l *keyLedger) verify(t *testing.T, db *DB, parts int) {
	t.Helper()
	seen := make(map[string]PartitionID)
	for p := 0; p < parts; p++ {
		pid := PartitionID(p)
		db.PartitionStore(pid).Table(kvstore.Table).Ascend("", "", func(k string, v any) bool {
			if prev, dup := seen[k]; dup {
				t.Errorf("key %q present in partitions %d and %d", k, prev, p)
			}
			seen[k] = pid
			if got := v.(int64); got != l.commits[k] {
				t.Errorf("partition %d key %q: store=%d, committed=%d", p, k, got, l.commits[k])
			}
			return true
		})
	}
	for k := range l.commits {
		if _, ok := seen[k]; !ok && l.commits[k] > 0 {
			t.Errorf("committed key %q missing from every store", k)
		}
	}
}

// TestElasticSplitTriggersUnderSkew is the tentpole's acceptance shape: a
// Zipfian hot-partition run with the saturation trigger on splits partition
// 0 mid-run, the migration timeline is ordered with a bounded dip, rows
// actually moved, and execution stays exactly-once across the cutover.
func TestElasticSplitTriggersUnderSkew(t *testing.T) {
	led := newKeyLedger()
	db := mustOpen(t, elasticOpts(Speculation, 16, 400,
		WithElasticity(ElasticityConfig{}),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) { led.observe(inv, r) }),
	)...)
	res := db.Run()
	if len(res.Migrations) == 0 {
		t.Fatalf("no migration triggered; partition utilizations %v", res.PartUtilization)
	}
	for i, ev := range res.Migrations {
		if !ev.Auto {
			t.Errorf("migration %d: Auto=false, want trigger-driven", i)
		}
		if ev.From != 0 {
			t.Errorf("migration %d donated from partition %d, want hot partition 0", i, ev.From)
		}
		if ev.RowsMoved == 0 || ev.BytesMoved == 0 {
			t.Errorf("migration %d moved nothing: %+v", i, ev)
		}
		if ev.LoKey == "" {
			t.Errorf("migration %d has empty split key", i)
		}
		if !(ev.TriggeredAt <= ev.CopiedAt && ev.CopiedAt <= ev.CutoverAt) {
			t.Errorf("migration %d timeline out of order: %+v", i, ev)
		}
		if ev.Dip() <= 0 || ev.Dip() > 50*Millisecond {
			t.Errorf("migration %d dip = %v, want in (0, 50ms]", i, ev.Dip())
		}
	}
	if res.MigrationDip <= 0 {
		t.Errorf("MigrationDip = %v, want positive", res.MigrationDip)
	}
	if got := len(db.Migrations()); got != len(res.Migrations) {
		t.Errorf("DB.Migrations() = %d events, Result has %d", got, len(res.Migrations))
	}
	led.verify(t, db, elasticParts)
}

// TestElasticManualMigrate drives a migration by hand in Manual mode and
// checks the donor's upper key range landed on the destination, replicas
// converged to the post-migration placement, and execution stayed
// exactly-once.
func TestElasticManualMigrate(t *testing.T) {
	led := newKeyLedger()
	db := mustOpen(t, elasticOpts(Speculation, 16, 200,
		WithReplicas(2),
		WithElasticity(ElasticityConfig{Manual: true}),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) { led.observe(inv, r) }),
	)...)
	db.RunFor(5 * Millisecond)
	if err := db.Migrate(0, 3); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	res := db.Run()
	if len(res.Migrations) != 1 {
		t.Fatalf("migrations = %+v, want exactly the manual one", res.Migrations)
	}
	ev := res.Migrations[0]
	if ev.Auto || ev.From != 0 || ev.To != 3 || ev.RowsMoved == 0 {
		t.Fatalf("unexpected migration event %+v", ev)
	}
	// The moved range is gone from the donor and present on the destination.
	donor := db.PartitionStore(0).Table(kvstore.Table)
	donor.Ascend(ev.LoKey, ev.HiKey, func(k string, v any) bool {
		t.Errorf("donor still holds migrated key %q", k)
		return true
	})
	moved := 0
	db.PartitionStore(3).Table(kvstore.Table).Ascend(ev.LoKey, ev.HiKey, func(k string, v any) bool {
		moved++
		return true
	})
	if moved == 0 {
		t.Error("destination holds none of the migrated range")
	}
	// Replicas converged to the post-migration placement.
	for p := 0; p < elasticParts; p++ {
		for i, bs := range db.BackupStores(PartitionID(p)) {
			if err := storage.DiffStores(db.PartitionStore(PartitionID(p)), bs); err != nil {
				t.Errorf("partition %d backup %d diverged: %v", p, i, err)
			}
		}
	}
	led.verify(t, db, elasticParts)
}

// TestElasticOracleAllSchemes verifies serializability across a mid-run
// migration under every scheme: the recorded history of each partition —
// including the synthetic migration records — must replay to the exact final
// stores.
func TestElasticOracleAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			setup := func(p PartitionID, s *Store) {
				kvstore.AddSchema(s)
				kvstore.Load(s, p, 16, elasticKeys)
			}
			db := mustOpen(t, elasticOpts(scheme, 16, 150,
				WithElasticity(ElasticityConfig{Manual: true}),
				withHistory(),
			)...)
			db.RunFor(5 * Millisecond)
			if err := db.Migrate(0, 2); err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			db.Run()
			if len(db.Migrations()) != 1 {
				t.Fatalf("migrations = %+v", db.Migrations())
			}
			initial := initialStores(len(db.histories()), setup)
			committed := 0
			for p, h := range db.histories() {
				committed += h.Len()
				if err := h.Verify(initial[p], db.PartitionStore(PartitionID(p))); err != nil {
					t.Errorf("partition %d: %v", p, err)
				}
			}
			if committed == 0 {
				t.Fatal("oracle recorded no committed transactions")
			}
		})
	}
}

// TestElasticDeterminism pins the tentpole's bit-identity contract: the same
// seed reproduces the same Result — migrations included — and the sharded
// runtime at widths 2 and 4 matches the single-shard baseline exactly
// (Parallel excluded, as documented). The run is time-bounded with a bare
// Micro rather than elasticOpts's workload.Limit wrapper: Limit shares its
// countdown across clients and therefore requires Shards == 1 (see the
// WithParallelism caveats), which the width sweep here would violate.
func TestElasticDeterminism(t *testing.T) {
	run := func(shards int) Result {
		opts := []Option{
			WithPartitions(elasticParts),
			WithClients(16),
			WithScheme(Speculation),
			WithSeed(11),
			WithWarmup(2 * Millisecond),
			WithMeasure(40 * Millisecond),
			WithRegistry(kvRegistry()),
			WithSetup(func(p PartitionID, s *Store) {
				kvstore.AddSchema(s)
				kvstore.Load(s, p, 16, elasticKeys)
			}),
			WithWorkloadFactory(func() Generator {
				return &workload.Micro{KeysPerTxn: elasticKeys, PartitionSkew: 0.95}
			}),
			WithElasticity(ElasticityConfig{}),
		}
		if shards > 0 {
			opts = append(opts, WithParallelism(ParallelismConfig{Shards: shards}))
		}
		db := mustOpen(t, opts...)
		res := db.Run()
		res.Parallel = nil
		return res
	}
	serial := run(0)
	if len(serial.Migrations) == 0 {
		t.Fatal("serial run performed no migrations; the determinism check would be vacuous")
	}
	if again := run(0); !reflect.DeepEqual(serial, again) {
		t.Errorf("same-seed serial rerun diverged:\n%+v\nvs\n%+v", serial, again)
	}
	base := run(1)
	if len(base.Migrations) == 0 {
		t.Fatal("sharded run performed no migrations")
	}
	for _, shards := range []int{1, 2, 4} {
		if got := run(shards); !reflect.DeepEqual(base, got) {
			t.Errorf("shards=%d diverged from the shards=1 baseline:\n%+v\nvs\n%+v", shards, base, got)
		}
	}
}

// TestElasticDurableCompose runs elasticity with durability on and checks
// the migration records land in both partitions' command logs and the log
// images stay bit-identical across a same-seed rerun.
func TestElasticDurableCompose(t *testing.T) {
	run := func() (*DB, Result) {
		db := mustOpen(t, elasticOpts(Speculation, 16, 300,
			WithDurability(DurabilityConfig{}),
			WithElasticity(ElasticityConfig{}),
		)...)
		return db, db.Run()
	}
	db1, res1 := run()
	if len(res1.Migrations) == 0 {
		t.Fatal("no migration triggered")
	}
	ev := res1.Migrations[0]
	if !bytes.Contains(db1.LogBytes(PartitionID(ev.From)), []byte("M d=o")) {
		t.Error("donor log holds no outbound migration record")
	}
	if !bytes.Contains(db1.LogBytes(PartitionID(ev.To)), []byte("M d=i")) {
		t.Error("destination log holds no inbound migration record")
	}
	db2, res2 := run()
	res1.Parallel, res2.Parallel = nil, nil
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("same-seed durable elastic reruns diverged:\n%+v\nvs\n%+v", res1, res2)
	}
	for p := 0; p < elasticParts; p++ {
		if !bytes.Equal(db1.LogBytes(PartitionID(p)), db2.LogBytes(PartitionID(p))) {
			t.Errorf("partition %d log images differ between same-seed runs", p)
		}
	}
}

// TestElasticCrashRestartReplaysMigration crashes the donor after a manual
// migration and verifies recovery replays the logged migration: the
// restarted store must not resurrect the moved range, and execution stays
// exactly-once across both the migration and the crash.
func TestElasticCrashRestartReplaysMigration(t *testing.T) {
	led := newKeyLedger()
	db := mustOpen(t, elasticOpts(Speculation, 16, 300,
		WithDurability(DurabilityConfig{}),
		WithElasticity(ElasticityConfig{Manual: true}),
		WithFaults(CrashRestart(0, 12*Millisecond)),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) { led.observe(inv, r) }),
	)...)
	db.RunFor(5 * Millisecond)
	if err := db.Migrate(0, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	runToQuiescence(t, db)
	res := db.Result()
	if len(res.Recovery) != 1 || res.Recovery[0].ResumedAt == 0 {
		t.Fatalf("recovery events = %+v", res.Recovery)
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("migrations = %+v", res.Migrations)
	}
	ev := res.Migrations[0]
	db.PartitionStore(0).Table(kvstore.Table).Ascend(ev.LoKey, ev.HiKey, func(k string, v any) bool {
		t.Errorf("restarted donor resurrected migrated key %q", k)
		return true
	})
	led.verify(t, db, elasticParts)
}

// TestElasticRejections pins every ErrBadElasticity path: too few
// partitions, a workload that cannot re-target (Script), a scan-bearing
// Micro, out-of-range config fields, Migrate without WithElasticity,
// degenerate Migrate arguments, and SetWorkload swapping in a
// non-router-aware generator mid-run.
func TestElasticRejections(t *testing.T) {
	base := func() []Option {
		return []Option{
			WithClients(4),
			WithRegistry(kvRegistry()),
			WithSetup(kvSetup(4)),
			WithWorkload(&workload.Micro{KeysPerTxn: 4}),
		}
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"one-partition", append(base(), WithPartitions(1), WithElasticity(ElasticityConfig{}))},
		{"script-workload", append(base(), WithPartitions(2),
			WithWorkload(scriptOf(4, 2)), WithElasticity(ElasticityConfig{}))},
		{"scan-workload", append(base(), WithPartitions(2),
			WithWorkload(&workload.Micro{KeysPerTxn: 4, ScanFraction: 0.5}),
			WithElasticity(ElasticityConfig{}))},
		{"negative-field", append(base(), WithPartitions(2),
			WithElasticity(ElasticityConfig{CopyLatency: -1}))},
		{"fraction-above-one", append(base(), WithPartitions(2),
			WithElasticity(ElasticityConfig{SaturationFraction: 1.5}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts...); !errors.Is(err, ErrBadElasticity) {
				t.Fatalf("Open error = %v, want ErrBadElasticity", err)
			}
		})
	}
	t.Run("migrate-without-elasticity", func(t *testing.T) {
		db := mustOpen(t, append(base(), WithPartitions(2))...)
		if err := db.Migrate(0, 1); !errors.Is(err, ErrBadElasticity) {
			t.Fatalf("Migrate error = %v, want ErrBadElasticity", err)
		}
	})
	t.Run("migrate-self", func(t *testing.T) {
		db := mustOpen(t, append(base(), WithPartitions(2), WithElasticity(ElasticityConfig{Manual: true}))...)
		if err := db.Migrate(1, 1); !errors.Is(err, ErrBadElasticity) {
			t.Fatalf("Migrate(1,1) error = %v, want ErrBadElasticity", err)
		}
		if err := db.Migrate(0, 5); !errors.Is(err, ErrBadElasticity) {
			t.Fatalf("Migrate(0,5) error = %v, want ErrBadElasticity", err)
		}
	})
	t.Run("setworkload-not-router-aware", func(t *testing.T) {
		db := mustOpen(t, append(base(), WithPartitions(2), WithElasticity(ElasticityConfig{Manual: true}))...)
		if err := db.SetWorkload(scriptOf(4, 2)); !errors.Is(err, ErrBadElasticity) {
			t.Fatalf("SetWorkload error = %v, want ErrBadElasticity", err)
		}
	})
}

// TestElasticMaxMigrationsCap pins the migration budget: a permanently
// skewed workload stops migrating at MaxMigrations.
func TestElasticMaxMigrationsCap(t *testing.T) {
	db := mustOpen(t, elasticOpts(Speculation, 16, 600,
		WithElasticity(ElasticityConfig{MaxMigrations: 1, Holdoff: 1}),
	)...)
	res := db.Run()
	if len(res.Migrations) != 1 {
		t.Fatalf("migrations = %d, want the MaxMigrations cap of 1", len(res.Migrations))
	}
}

// TestElasticRoutedInvocationTargetsLiveHome is the satellite regression for
// generators captured at Open: after a mid-phase migration the generator
// must issue the moved keys to their new physical partition, not the
// partition count or placement captured when the phase began. Every
// committed invocation's key groups are checked against the live routing
// table at completion time.
func TestElasticRoutedInvocationTargetsLiveHome(t *testing.T) {
	var db *DB
	checked := 0
	opts := elasticOpts(Speculation, 16, 300,
		WithElasticity(ElasticityConfig{}),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) {
			if !r.Committed || len(db.Migrations()) == 0 {
				return
			}
			for pid, keys := range inv.Args.(*kvstore.Args).Keys {
				for _, k := range keys {
					if home := db.router.Place(pid, k); home != pid {
						t.Errorf("key %q issued to partition %d, lives on %d", k, pid, home)
					}
				}
			}
			checked++
		}),
	)
	db = mustOpen(t, opts...)
	db.Run()
	if len(db.Migrations()) == 0 {
		t.Fatal("no migration triggered")
	}
	if checked == 0 {
		t.Fatal("no post-migration invocation was checked")
	}
}
