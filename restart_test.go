package specdb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"specdb/internal/kvstore"
	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/workload"
)

// restartOpts builds an unreplicated durable microbenchmark cluster with a
// finite workload, suitable for running to quiescence across a crash-restart.
func restartOpts(t *testing.T, scheme Scheme, perClient int, extra ...Option) []Option {
	t.Helper()
	const (
		parts      = 2
		clients    = 16
		keysPerTxn = 6
	)
	reg := NewRegistry()
	reg.Register(kvstore.Proc{})
	opts := []Option{
		WithPartitions(parts),
		WithClients(clients),
		WithScheme(scheme),
		WithRegistry(reg),
		WithSeed(7),
		WithDurability(DurabilityConfig{}),
		WithSetup(func(p PartitionID, s *Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keysPerTxn)
		}),
		WithWorkloadFactory(func() Generator {
			return &workload.Limit{
				Gen: &workload.Micro{Partitions: parts, KeysPerTxn: keysPerTxn, MPFraction: 0.2},
				N:   clients * perClient,
			}
		}),
	}
	return append(opts, extra...)
}

// TestCrashRestartExactlyOnce crashes a durable partition mid-traffic and
// verifies exactly-once execution across the restart: the recovered store
// matches the client-observed commit ledger key for key — a committed
// transaction lost by recovery or replayed twice shows up as a counter
// mismatch.
func TestCrashRestartExactlyOnce(t *testing.T) {
	for _, scheme := range []Scheme{Speculation, Blocking} {
		t.Run(scheme.String(), func(t *testing.T) {
			led := newLedger()
			opts := restartOpts(t, scheme, 200,
				WithFaults(CrashRestart(0, 10300*Microsecond)),
				WithOnComplete(func(ci int, inv *Invocation, reply *Reply) {
					led.observe(inv, reply)
				}),
			)
			db, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			runToQuiescence(t, db)

			res := db.Result()
			if len(res.Recovery) != 1 {
				t.Fatalf("recovery events = %+v", res.Recovery)
			}
			ev := res.Recovery[0]
			if ev.Partition != 0 {
				t.Fatalf("unexpected recovery event %+v", ev)
			}
			if ev.CrashedAt != 10300*Microsecond {
				t.Errorf("CrashedAt = %v", ev.CrashedAt)
			}
			if ev.RestartedAt <= ev.CrashedAt || ev.ResumedAt < ev.RestartedAt {
				t.Errorf("stage times out of order: %+v", ev)
			}
			if ev.CheckpointBytes == 0 {
				t.Errorf("no checkpoint image loaded: %+v", ev)
			}
			if ev.LogBytes == 0 || ev.ReplayTxns == 0 {
				t.Errorf("nothing replayed — the crash missed the traffic: %+v", ev)
			}
			if res.Downtime <= 0 {
				t.Errorf("downtime = %v", res.Downtime)
			}
			if res.ReplayParallelism != 1 {
				t.Errorf("replay parallelism = %d", res.ReplayParallelism)
			}
			if m := db.Peek(); m.Restarts != 1 {
				t.Errorf("metrics restarts = %d", m.Restarts)
			}
			// The restart must be visible to clients: the workload ran to
			// completion.
			var issued uint64
			for _, cl := range db.Clients() {
				if !cl.Idle() {
					t.Fatalf("client %d still busy after quiescence", cl.Index)
				}
				issued += cl.Completed
			}
			if got, want := issued, uint64(16*200); got != want {
				t.Errorf("completed %d transactions, want %d", got, want)
			}
			led.verify(t, db, 2)
		})
	}
}

// TestCrashRestartDeterministic: same seed, same schedule — bit-identical
// Result, bit-identical recovered stores, AND bit-identical command-log
// byte transcripts on every partition.
func TestCrashRestartDeterministic(t *testing.T) {
	run := func() (Result, uint64, uint64, []byte, []byte) {
		db, err := Open(restartOpts(t, Speculation, 100,
			WithFaults(CrashRestart(1, 10300*Microsecond)))...)
		if err != nil {
			t.Fatal(err)
		}
		runToQuiescence(t, db)
		return db.Result(),
			db.PartitionStore(0).Fingerprint(), db.PartitionStore(1).Fingerprint(),
			db.LogBytes(0), db.LogBytes(1)
	}
	r1, fp0a, fp1a, lb0a, lb1a := run()
	r2, fp0b, fp1b, lb0b, lb1b := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results differ:\n%+v\n%+v", r1, r2)
	}
	if fp0a != fp0b || fp1a != fp1b {
		t.Errorf("store fingerprints differ: (%x,%x) vs (%x,%x)", fp0a, fp1a, fp0b, fp1b)
	}
	if !bytes.Equal(lb0a, lb0b) || !bytes.Equal(lb1a, lb1b) {
		t.Errorf("log byte transcripts differ: (%d,%d) vs (%d,%d) bytes", len(lb0a), len(lb1a), len(lb0b), len(lb1b))
	}
	if len(lb0a) == 0 || len(lb1a) == 0 {
		t.Error("empty log transcripts: durability was not exercised")
	}
	if len(r1.Recovery) != 1 || r1.Recovery[0].ResumedAt == 0 {
		t.Errorf("restart did not complete: %+v", r1.Recovery)
	}
}

// TestCrashRestartStateEquivalence is the restart-equivalence oracle: the
// workload finishes and the cluster quiesces, the pre-crash committed state
// is cloned, then the primary is killed and restarted from disk. The
// recovered store must match the pre-crash clone exactly, key for key —
// checkpoint plus log-tail replay reconstructs committed state bit for bit.
func TestCrashRestartStateEquivalence(t *testing.T) {
	const crashAt = 2 * Second // long after the finite workload drains
	db, err := Open(restartOpts(t, Speculation, 100,
		WithFaults(CrashRestart(0, crashAt)))...)
	if err != nil {
		t.Fatal(err)
	}
	db.RunFor(10 * Millisecond) // kick the clients off
	for i := 0; i < 10_000 && !db.Quiescent(); i++ {
		db.RunFor(10 * Millisecond)
	}
	if !db.Quiescent() || db.Now() >= crashAt {
		t.Fatalf("workload did not quiesce before the crash (now=%v)", db.Now())
	}
	// Let in-flight group commits and checkpoints land, then snapshot the
	// committed truth.
	db.RunFor(10 * Millisecond)
	preCrash := db.PartitionStore(0).Clone()
	before := db.groups[0].primary

	db.Run() // processes the crash, the restart, and the recovery
	if !db.Quiescent() {
		t.Fatal("cluster did not recover to quiescence")
	}
	recovered := db.PartitionStore(0)
	if db.livePrimary(0) == before {
		t.Fatal("partition 0 was not restarted")
	}
	if err := storage.DiffStores(preCrash, recovered); err != nil {
		t.Fatalf("recovered store differs from pre-crash committed state: %v", err)
	}
	res := db.Result()
	if len(res.Recovery) != 1 || res.Recovery[0].ResumedAt == 0 {
		t.Fatalf("restart did not complete: %+v", res.Recovery)
	}
}

// TestTPCCCrashRestartConsistency crashes a durable TPC-C partition
// mid-window and verifies the recovered cluster still satisfies the TPC-C
// consistency conditions — the strongest end-to-end check that restart
// recovery loses no committed transaction and applies none twice.
func TestTPCCCrashRestartConsistency(t *testing.T) {
	opts, layout, _ := tpccOpts(Speculation, 4, 1200)
	completed := 0
	opts = append(opts,
		WithDurability(DurabilityConfig{}),
		WithFaults(CrashRestart(0, 15*Millisecond)),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) { completed++ }),
	)
	db := mustOpen(t, opts...)
	for i := 0; i < 10_000 && !db.Quiescent(); i++ {
		db.RunFor(10 * Millisecond)
	}
	if !db.Quiescent() {
		t.Fatal("TPC-C run did not quiesce after the restart")
	}
	db.Run()
	if completed != 1200 {
		t.Fatalf("completed %d of 1200 invocations", completed)
	}
	res := db.Result()
	if len(res.Recovery) != 1 || res.Recovery[0].ResumedAt == 0 {
		t.Fatalf("restart did not complete: %+v", res.Recovery)
	}
	stores := []*storage.Store{db.PartitionStore(0), db.PartitionStore(1)}
	if err := tpcc.CheckConsistency(layout, stores); err != nil {
		t.Fatalf("consistency violated across restart: %v", err)
	}
}

// TestRecoveryLatencyTracksCheckpointInterval: tighter checkpoint intervals
// mean shorter durable log tails and therefore faster recovery. Recovery
// latency must be monotonically non-decreasing in the checkpoint interval,
// with a strict increase across the full range.
func TestRecoveryLatencyTracksCheckpointInterval(t *testing.T) {
	intervals := []Time{2 * Millisecond, 10 * Millisecond, 40 * Millisecond}
	var lats []Time
	for _, iv := range intervals {
		db, err := Open(restartOpts(t, Speculation, 300,
			WithDurability(DurabilityConfig{CheckpointInterval: iv}),
			WithFaults(CrashRestart(0, 60*Millisecond)))...)
		if err != nil {
			t.Fatal(err)
		}
		runToQuiescence(t, db)
		res := db.Result()
		if len(res.Recovery) != 1 || res.Recovery[0].ResumedAt == 0 {
			t.Fatalf("interval %v: restart did not complete: %+v", iv, res.Recovery)
		}
		lats = append(lats, res.Recovery[0].RecoveryLatency())
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] < lats[i-1] {
			t.Errorf("recovery latency not monotone in checkpoint interval: %v -> %v at %v",
				lats[i-1], lats[i], intervals[i])
		}
	}
	if !(lats[len(lats)-1] > lats[0]) {
		t.Errorf("recovery latency flat across %v..%v: %v", intervals[0], intervals[len(intervals)-1], lats)
	}
}

// TestDurabilityValidation covers the WithDurability/CrashRestart envelope.
func TestDurabilityValidation(t *testing.T) {
	reg := NewRegistry()
	reg.Register(kvstore.Proc{})
	base := []Option{
		WithRegistry(reg),
		WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: 2}),
	}
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"restart-without-durability", append(base[:2:2], WithFaults(CrashRestart(0, Millisecond))), ErrBadFaults},
		{"restart-with-replicas", append(base[:2:2], WithReplicas(2), WithDurability(DurabilityConfig{}), WithFaults(CrashRestart(0, Millisecond))), ErrBadFaults},
		{"restart-under-locking", append(base[:2:2], WithScheme(Locking), WithDurability(DurabilityConfig{}), WithFaults(CrashRestart(0, Millisecond))), ErrFaultsLocking},
		{"negative-disk-latency", append(base[:2:2], WithDurability(DurabilityConfig{DiskLatency: -Millisecond})), ErrBadDurability},
		{"negative-group-commit", append(base[:2:2], WithDurability(DurabilityConfig{GroupCommit: GroupCommitConfig{MaxBytes: -1}})), ErrBadDurability},
		{"negative-checkpoint", append(base[:2:2], WithDurability(DurabilityConfig{CheckpointInterval: -Millisecond})), ErrBadDurability},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts...); !errors.Is(err, tc.want) {
				t.Errorf("Open = %v, want %v", err, tc.want)
			}
		})
	}
	// A valid durable cluster opens, runs and reports no recovery events.
	db := mustOpen(t, restartOpts(t, Speculation, 5)...)
	db.Run()
	res := db.Result()
	if res.Recovery != nil || res.ReplayParallelism != 0 {
		t.Errorf("fault-free durable run reported recovery: %+v", res.Recovery)
	}
	if len(db.LogBytes(0)) == 0 {
		t.Error("fault-free durable run produced no log bytes")
	}
}
