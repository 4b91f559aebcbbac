package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"strings"
	"testing"

	"specdb/internal/locks"
	"specdb/internal/msg"
	"specdb/internal/storage"
)

func TestLockingFastPathNoLocks(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	e := NewLocking(env, LockConfig{})
	e.Fragment(spFrag(1, incrKey("x")))
	requireReplies(t, env, 1)
	if !env.replies[0].Committed || env.replies[0].Output != 6 {
		t.Fatalf("reply = %+v", env.replies[0])
	}
	if s := e.LockStats(); s.Acquires != 0 {
		t.Fatalf("fast path acquired %d locks", s.Acquires)
	}
	if e.Stats().FastPath != 1 {
		t.Fatal("fast path not counted")
	}
}

func TestLockingAlwaysLockDisablesFastPath(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	e := NewLocking(env, LockConfig{AlwaysLock: true})
	e.Fragment(spFrag(1, incrKey("x")))
	requireReplies(t, env, 1)
	if s := e.LockStats(); s.Acquires == 0 {
		t.Fatal("AlwaysLock did not acquire locks")
	}
	if e.Stats().FastPath != 0 {
		t.Fatal("fast path used despite AlwaysLock")
	}
	if e.ActiveCount() != 0 {
		t.Fatal("transaction leaked")
	}
}

func TestLockingSPDuringMPAcquiresLocks(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	env.set("y", 1)
	e := NewLocking(env, LockConfig{})
	// MP txn holds x and stalls awaiting decision.
	e.Fragment(mpFrag(1, 0, true, 7, incrKey("x")))
	requireResults(t, env, 1)
	// Non-conflicting SP txn runs concurrently with locks.
	e.Fragment(spFrag(2, incrKey("y")))
	requireReplies(t, env, 1)
	if env.replies[0].Output != 2 {
		t.Fatalf("y increment = %+v", env.replies[0])
	}
	if s := e.LockStats(); s.Acquires == 0 {
		t.Fatal("no locks acquired while MP active")
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if e.ActiveCount() != 0 {
		t.Fatal("active transactions leaked")
	}
}

func TestLockingConflictBlocksUntilCommit(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, writeKey("x", 100)))
	// Conflicting SP txn blocks mid-execution.
	e.Fragment(spFrag(2, incrKey("x")))
	requireReplies(t, env, 0)
	// Commit of the MP txn releases the lock; the SP txn resumes, sees
	// the committed value, and replies.
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	requireReplies(t, env, 1)
	if env.replies[0].Output != 101 {
		t.Fatalf("reply = %+v; SP must read committed x=100", env.replies[0])
	}
}

func TestLockingConflictSeesRollbackOnAbort(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, writeKey("x", 100)))
	e.Fragment(spFrag(2, incrKey("x")))
	e.Decision(&msg.Decision{Txn: 1, Commit: false})
	requireReplies(t, env, 1)
	if env.replies[0].Output != 6 {
		t.Fatalf("reply = %+v; SP must read rolled-back x=5", env.replies[0])
	}
}

// twoStepWork writes k1 then k2, giving interleavings that can deadlock when
// run as two rounds.
func lockStep(k string, val int) workFn {
	return writeKey(k, val)
}

func TestLockingLocalDeadlockPrefersSPVictim(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	env.set("b", 0)
	e := NewLocking(env, LockConfig{})
	// MP txn 1 takes a in round 0 (more rounds coming).
	e.Fragment(mpFrag(1, 0, false, 7, lockStep("a", 1)))
	// SP txn 2 takes b, then wants a: blocks (no cycle yet).
	e.Fragment(spFrag(2, func(v *storage.TxnView) (any, error) {
		v.Put("kv", "b", 2)
		v.Put("kv", "a", 2)
		return nil, nil
	}))
	requireReplies(t, env, 0)
	// MP txn 1 round 1 wants b: cycle {1,2}. SP txn 2 is the victim.
	e.Fragment(mpFrag(1, 1, true, 7, lockStep("b", 1)))
	requireReplies(t, env, 1)
	if !env.replies[0].Retryable || env.replies[0].Committed {
		t.Fatalf("victim reply = %+v", env.replies[0])
	}
	if e.Stats().DeadlockKills != 1 {
		t.Fatalf("kills = %d", e.Stats().DeadlockKills)
	}
	// MP txn 1 proceeded after the kill and voted.
	requireResults(t, env, 2)
	if env.results[1].Aborted {
		t.Fatal("MP txn should have survived")
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("a") != 1 || env.get("b") != 1 {
		t.Fatalf("a=%d b=%d", env.get("a"), env.get("b"))
	}
	// The victim's writes were rolled back.
	if e.ActiveCount() != 0 {
		t.Fatal("leaked active transactions")
	}
}

func TestLockingMPMPDeadlockKillsOne(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	env.set("b", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, false, 7, lockStep("a", 1)))
	e.Fragment(mpFrag(2, 0, false, 7, lockStep("b", 2)))
	e.Fragment(mpFrag(1, 1, true, 7, lockStep("b", 1))) // 1 waits on 2
	requireResults(t, env, 2)
	e.Fragment(mpFrag(2, 1, true, 7, lockStep("a", 2))) // cycle
	if e.Stats().DeadlockKills != 1 {
		t.Fatalf("kills = %d", e.Stats().DeadlockKills)
	}
	// One of them voted abort; the other completed its fragment.
	aborts, oks := 0, 0
	for _, r := range env.results[2:] {
		if r.Aborted {
			aborts++
		} else {
			oks++
		}
	}
	if aborts != 1 || oks != 1 {
		t.Fatalf("aborts=%d oks=%d results=%+v", aborts, oks, env.results)
	}
}

func TestLockingDistributedDeadlockTimeout(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	e := NewLocking(env, LockConfig{})
	// MP txn 1 holds a, stalled remotely (never finishes its rounds).
	e.Fragment(mpFrag(1, 0, false, 7, lockStep("a", 1)))
	// MP txn 2 wants a: blocks with no local cycle → timer armed.
	e.Fragment(mpFrag(2, 0, true, 8, lockStep("a", 2)))
	if len(env.timers) != 1 {
		t.Fatalf("timers = %d", len(env.timers))
	}
	e.Timer(env.timers[0].payload)
	if e.Stats().TimeoutKills != 1 {
		t.Fatalf("timeout kills = %d", e.Stats().TimeoutKills)
	}
	// Txn 2 voted abort.
	last := env.results[len(env.results)-1]
	if last.Txn != 2 || !last.Aborted {
		t.Fatalf("result = %+v", last)
	}
}

func TestLockingStaleTimeoutIgnored(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, lockStep("a", 1)))
	e.Fragment(mpFrag(2, 0, true, 8, lockStep("a", 2))) // blocks, timer armed
	e.Decision(&msg.Decision{Txn: 1, Commit: true})     // unblocks 2, which votes
	// Stale timer fires after txn 2 was granted; it must not kill.
	e.Timer(env.timers[0].payload)
	if e.Stats().TimeoutKills != 0 {
		t.Fatal("stale timeout killed a granted transaction")
	}
	e.Decision(&msg.Decision{Txn: 2, Commit: true})
	if env.get("a") != 2 {
		t.Fatalf("a = %d", env.get("a"))
	}
}

func TestLockingAbortDecisionWhileBlocked(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, false, 7, lockStep("a", 1)))
	e.Fragment(mpFrag(2, 0, true, 8, lockStep("a", 2))) // blocked on a
	// Another participant of txn 2 was killed: the coordinator aborts it
	// while our fragment is still waiting.
	e.Decision(&msg.Decision{Txn: 2, Commit: false})
	if e.ActiveCount() != 1 {
		t.Fatalf("active = %d; txn 2 must be gone", e.ActiveCount())
	}
	// Txn 1 can finish normally.
	e.Fragment(mpFrag(1, 1, true, 7, lockStep("a", 3)))
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("a") != 3 {
		t.Fatalf("a = %d", env.get("a"))
	}
}

func TestLockingUserAbortReleasesLocks(t *testing.T) {
	env := newFakeEnv(t)
	env.set("a", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, lockStep("a", 1))) // holds a
	ab := spFragAbortable(2, func(v *storage.TxnView) (any, error) {
		v.Put("kv", "scratch", 1)
		return nil, errTestAbort
	})
	e.Fragment(ab)
	requireReplies(t, env, 1)
	if !env.replies[0].UserAborted || env.replies[0].Retryable {
		t.Fatalf("reply = %+v", env.replies[0])
	}
	if _, ok := env.store.Table("kv").Get("scratch"); ok {
		t.Fatal("aborted write persisted")
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if e.ActiveCount() != 0 {
		t.Fatal("leaked transactions")
	}
}

func TestLockingSharedReadersProceed(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 42)
	e := NewLocking(env, LockConfig{})
	// MP reader holds S on x.
	e.Fragment(mpFrag(1, 0, true, 7, readKey("x")))
	// SP reader shares the lock and completes immediately.
	e.Fragment(spFrag(2, readKey("x")))
	requireReplies(t, env, 1)
	if env.replies[0].Output != 42 {
		t.Fatalf("reply = %+v", env.replies[0])
	}
	// SP writer blocks.
	e.Fragment(spFrag(3, incrKey("x")))
	requireReplies(t, env, 1)
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	requireReplies(t, env, 2)
	if env.replies[1].Output != 43 {
		t.Fatalf("writer reply = %+v", env.replies[1])
	}
}

func TestLockingUpgradeWithinTransaction(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 1)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, readKey("y"))) // make partition non-idle
	// Plain Get then Put: a sole-holder S→X upgrade must succeed.
	e.Fragment(spFrag(2, func(v *storage.TxnView) (any, error) {
		cur, _ := v.Get("kv", "x")
		n := cur.(int) + 1
		v.Put("kv", "x", n)
		return n, nil
	}))
	requireReplies(t, env, 1)
	if env.replies[0].Output != 2 {
		t.Fatalf("reply = %+v", env.replies[0])
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
}

func TestLockingChainedGrants(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, incrKey("x")))
	// Three SP increments pile up on x.
	e.Fragment(spFrag(2, incrKey("x")))
	e.Fragment(spFrag(3, incrKey("x")))
	e.Fragment(spFrag(4, incrKey("x")))
	requireReplies(t, env, 0)
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	// All three resume in FIFO order within the decision event.
	requireReplies(t, env, 3)
	if env.get("x") != 4 {
		t.Fatalf("x = %d", env.get("x"))
	}
	for i, want := range []any{2, 3, 4} {
		if env.replies[i].Output != want {
			t.Fatalf("reply %d = %+v", i, env.replies[i])
		}
	}
}

func TestLockingMultiRoundHoldsLocksAcrossRounds(t *testing.T) {
	env := newFakeEnv(t)
	env.set("x", 5)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, false, 7, readKey("x")))
	// Reacquiring x in round 1 (upgrade) must succeed without deadlock.
	e.Fragment(mpFrag(1, 1, true, 7, writeKey("x", 17)))
	requireResults(t, env, 2)
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("x") != 17 {
		t.Fatalf("x = %d", env.get("x"))
	}
}

// scanRange ascends [lo, hi) and reports what it saw as "k=v k=v ...".
func scanRange(lo, hi string) workFn {
	return func(v *storage.TxnView) (any, error) {
		var seen []string
		v.Ascend("kv", lo, hi, func(k string, val any) bool {
			seen = append(seen, fmt.Sprintf("%s=%d", k, val.(int)))
			return true
		})
		return strings.Join(seen, " "), nil
	}
}

// A scanner that has to wait inside Ascend — the row it reached is a not yet
// decided insert — must come back to the table as the decision left it. When
// fragments waited in place on a goroutine of their own, the scan resumed
// inside a B-tree walk that the abort's rollback had pulled the row out from
// under: it reported the aborted row and skipped the one after it.
func TestLockingScanBlockedOnAbortedInsert(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit bool
		want   string
	}{
		{"abort", false, "a=1 c=3"},
		{"commit", true, "a=1 b=100 c=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(t)
			env.set("a", 1)
			env.set("c", 3)
			e := NewLocking(env, LockConfig{})
			e.Fragment(mpFrag(1, 0, true, 7, writeKey("b", 100)))
			e.Fragment(spFrag(2, scanRange("a", "d")))
			requireReplies(t, env, 0) // parked on b
			e.Decision(&msg.Decision{Txn: 1, Commit: tc.commit})
			requireReplies(t, env, 1)
			if got := env.replies[0].Output; got != tc.want {
				t.Fatalf("scan saw %q, want %q", got, tc.want)
			}
		})
	}
}

// parkedRound1 drives a two-round multi-partition transaction 2 to the point
// where its round-1 fragment is parked: round 0 wrote x, round 1 wrote z and
// then asked for y, which transaction 1 holds.
func parkedRound1(t *testing.T) (*fakeEnv, *LockEngine) {
	env := newFakeEnv(t)
	env.set("x", 5)
	env.set("y", 10)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, writeKey("y", 20)))
	e.Fragment(mpFrag(2, 0, false, 8, writeKey("x", 50)))
	requireResults(t, env, 2)
	e.Fragment(mpFrag(2, 1, true, 8, func(v *storage.TxnView) (any, error) {
		v.Put("kv", "z", 7)
		cur, _ := v.GetForUpdate("kv", "y")
		v.Put("kv", "y", cur.(int)+1)
		return cur, nil
	}))
	requireResults(t, env, 2) // no vote yet
	if env.get("x") != 50 {
		t.Fatalf("x = %d while parked; round 0's write must stay", env.get("x"))
	}
	if _, ok := env.store.Table("kv").Get("z"); ok {
		t.Fatal("z present while parked; the unwound fragment's write must be undone")
	}
	return env, e
}

func TestLockingRerunKeepsEarlierRounds(t *testing.T) {
	env, e := parkedRound1(t)
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	// The grant re-ran round 1 from its start: it read the committed y.
	requireResults(t, env, 3)
	if r := env.results[2]; r.Txn != 2 || r.Round != 1 || r.Aborted || r.Output != 20 {
		t.Fatalf("round 1 result = %+v", r)
	}
	e.Decision(&msg.Decision{Txn: 2, Commit: true})
	if env.get("x") != 50 || env.get("y") != 21 || env.get("z") != 7 {
		t.Fatalf("x=%d y=%d z=%d", env.get("x"), env.get("y"), env.get("z"))
	}
	// Every request counts once however often its fragment ran: y by txn 1;
	// x, z, y (queued) and y again for the write by txn 2.
	want := locks.Stats{Acquires: 5, Immediate: 4, Waits: 1, Releases: 4}
	if got := e.LockStats(); got != want {
		t.Fatalf("lock stats = %+v, want %+v", got, want)
	}
	if e.Stats().Executed != 3 {
		t.Fatalf("executed = %d, want 3 (the unwound run is not an execution)", e.Stats().Executed)
	}
	if e.ActiveCount() != 0 || len(env.undos) != 0 {
		t.Fatal("transaction state leaked")
	}
}

func TestLockingKillWhileParkedRollsBackAllRounds(t *testing.T) {
	env, e := parkedRound1(t)
	if len(env.timers) != 1 {
		t.Fatalf("timers = %d, want the parked fragment's deadlock timeout", len(env.timers))
	}
	e.Timer(env.timers[0].payload)
	requireResults(t, env, 3)
	if r := env.results[2]; r.Txn != 2 || !r.Killed {
		t.Fatalf("victim result = %+v", r)
	}
	if env.get("x") != 5 {
		t.Fatalf("x = %d; the kill must roll back round 0 too", env.get("x"))
	}
	if _, ok := env.store.Table("kv").Get("z"); ok {
		t.Fatal("z survived the kill")
	}
	// A victim is never re-run, so its requests stay counted as made: y by
	// txn 1; x, z and the queued y by txn 2, which held x and z.
	want := locks.Stats{Acquires: 4, Immediate: 3, Waits: 1, Releases: 2}
	if got := e.LockStats(); got != want {
		t.Fatalf("lock stats = %+v, want %+v", got, want)
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("y") != 20 || e.ActiveCount() != 0 {
		t.Fatalf("y = %d, active = %d", env.get("y"), e.ActiveCount())
	}
}

// The engine runs on its caller's stack alone: transactions parked on locks
// are plain data, and nothing in the package can start a goroutine or make a
// channel to hand a fragment to.
func TestLockingUsesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newFakeEnv(t)
	env.set("x", 0)
	e := NewLocking(env, LockConfig{})
	e.Fragment(mpFrag(1, 0, true, 7, incrKey("x")))
	for id := uint64(2); id <= 5; id++ {
		e.Fragment(spFrag(id, incrKey("x")))
	}
	if e.ActiveCount() != 5 {
		t.Fatalf("active = %d, want 5 (four parked behind one)", e.ActiveCount())
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d with four transactions parked", before, after)
	}

	files, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range files {
		for name, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", name)
				case *ast.ChanType:
					t.Errorf("%s: channel type", name)
				}
				return true
			})
		}
	}
}
