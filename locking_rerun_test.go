package specdb

import (
	"runtime"
	"testing"

	"specdb/internal/core"
	"specdb/internal/kvstore"
	"specdb/internal/locks"
	"specdb/internal/msg"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// TestLockingGoldenCounts pins the locking engine's exact behaviour to numbers
// recorded at the commit before fragments stopped running on goroutines of
// their own (PR 16, 8e0b5d4): a fragment that is unwound on a lock conflict
// and re-run after the grant must commit the same transactions, kill the same
// victims and count every lock request once, exactly as one that waited in
// place did. The two micro rows are point accesses on contended keys with 40%
// two-round multi-partition transactions, user aborts and shared readers —
// with the default deadlock timeout, and with one short enough to fire. The
// TPC-C row adds upgrades and local deadlock cycles; its seed is one where no
// scan ever met another transaction's parked fragment (ARCHITECTURE.md,
// determinism rule 4, states what changes when one does).
func TestLockingGoldenCounts(t *testing.T) {
	type partCounts struct {
		locks                                              locks.Stats
		executed, deadlockKills, timeoutKills, localAborts uint64
	}
	micro := func(lc LockConfig) []Option {
		gen := &workload.Limit{Gen: &workload.Micro{
			Partitions: 2, KeysPerTxn: testKeys, MPFraction: 0.4,
			ConflictProb: 0.6, TwoRound: true, AbortProb: 0.05, ReadFraction: 0.2,
		}, N: 3000}
		return append(drainOpts(Locking, gen), WithSeed(17), WithLockConfig(lc))
	}
	tpccRow, _, _ := tpccOpts(Locking, 4, 3000)
	for _, tc := range []struct {
		name               string
		opts               []Option
		committed, retries uint64
		parts              [2]partCounts
	}{
		{"conflict", micro(LockConfig{}), 2884, 0, [2]partCounts{
			{locks.Stats{Acquires: 30614, Immediate: 29891, Waits: 723, Releases: 17220}, 2997, 0, 0, 68},
			{locks.Stats{Acquires: 31011, Immediate: 30209, Waits: 802, Releases: 17418}, 2999, 0, 0, 48},
		}},
		{"timeout", micro(LockConfig{DeadlockTimeout: 150 * Microsecond}), 2882, 1784, [2]partCounts{
			{locks.Stats{Acquires: 37253, Immediate: 35680, Waits: 1573, Releases: 22968}, 3973, 0, 758, 80},
			{locks.Stats{Acquires: 36289, Immediate: 34287, Waits: 2002, Releases: 21534}, 3680, 0, 1059, 48},
		}},
		{"tpcc", append(tpccRow, WithSeed(9)), 2989, 8, [2]partCounts{
			{locks.Stats{Acquires: 59183, Immediate: 58815, Waits: 368, Upgrades: 4206, Releases: 46587}, 1615, 5, 0, 5},
			{locks.Stats{Acquires: 58097, Immediate: 57755, Waits: 342, Upgrades: 4262, Releases: 45755}, 1582, 3, 0, 6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := mustOpen(t, tc.opts...).Run()
			if res.Committed != tc.committed || res.Retries != tc.retries {
				t.Errorf("committed %d retries %d, recorded %d and %d", res.Committed, res.Retries, tc.committed, tc.retries)
			}
			for p, want := range tc.parts {
				es := res.EngineStats[p]
				got := partCounts{res.LockStats[p], es.Executed, es.DeadlockKills, es.TimeoutKills, es.LocalAborts}
				if got != want {
					t.Errorf("partition %d: %+v, recorded %+v", p, got, want)
				}
			}
		})
	}
}

// TestLockingLeavesNoGoroutines abandons a locking run at a moment when a
// transaction is parked on a lock and checks that nothing but garbage is left
// behind: when every blocked fragment sat on a goroutine of its own, each one
// stayed parked forever and pinned its DB.
func TestLockingLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	// One two-round multi-partition transaction holds client 0's keys on both
	// partitions across its coordinator round trips; single-partition
	// transactions on the same keys of partition 0 pile up behind it.
	keys := func(p msg.PartitionID) []string { return kvstore.PartitionKeys(0, p, testKeys/2) }
	script := &workload.Script{Invs: []*txn.Invocation{{
		Proc:    kvstore.ProcName,
		Args:    &kvstore.Args{Keys: map[msg.PartitionID][]string{0: keys(0), 1: keys(1)}, TwoRound: true},
		AbortAt: txn.NoAbort,
	}}}
	for i := 0; i < 8; i++ {
		script.Invs = append(script.Invs, &txn.Invocation{
			Proc:    kvstore.ProcName,
			Args:    &kvstore.Args{Keys: map[msg.PartitionID][]string{0: keys(0)}},
			AbortAt: txn.NoAbort,
		})
	}
	db := mustOpen(t, drainOpts(Locking, script)...)
	engine := db.groups[0].primary.Engine().(*core.LockEngine)
	// Only one transaction in the script is multi-partition, and a
	// single-partition one is active between events only while parked.
	parked := false
	for i := 0; i < 2000 && !parked; i++ {
		db.RunFor(5 * Microsecond)
		parked = engine.ActiveCount() >= 2
	}
	if !parked {
		t.Fatal("no transaction ever waited for a lock; the scenario is broken")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before Open, %d with the run abandoned mid-wait", before, after)
	}
}
