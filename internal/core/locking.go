package core

import (
	"fmt"
	"sort"

	"specdb/internal/locks"
	"specdb/internal/msg"
	"specdb/internal/sim"
)

// LockConfig tunes the locking engine.
type LockConfig struct {
	// DeadlockTimeout bounds how long a blocked multi-partition
	// transaction waits before being killed, resolving distributed
	// deadlocks (§4.3). Zero selects a default.
	DeadlockTimeout sim.Time
	// AlwaysLock disables the lock-free fast path, for the ablation
	// discussed with Figure 4 ("If we force locks to always be
	// acquired...").
	AlwaysLock bool
}

// DefaultDeadlockTimeout is used when LockConfig.DeadlockTimeout is zero.
const DefaultDeadlockTimeout = 2 * sim.Millisecond

// LockEngine implements §4.3: strict two-phase locking specialized for a
// single-threaded partition. When no transactions are active, an arriving
// single-partition transaction runs without locks or undo, exactly like the
// other schemes' fast path. Otherwise transactions acquire row locks as they
// access data and wait on conflict.
//
// A fragment runs inline on the engine's own stack. When one of its lock
// requests has to queue, the locker unwinds the body with Suspend, Env.Execute
// undoes what this fragment wrote (the transaction's earlier rounds and every
// lock it holds stay), and the transaction is parked. When Release returns its
// grant the fragment is re-run from its start; the requests it repeats are
// re-entrant and immediate, so it gets past the point where it stopped. Virtual
// CPU is charged only by the run that completes, from that run's own access
// counts: exactly what a fragment that waited in place would be charged. Local
// deadlocks are detected by waits-for cycle search at block time, preferring
// single-partition victims; distributed deadlocks fall to a timeout.
type LockEngine struct {
	env    Env
	cfg    LockConfig
	lm     *locks.Manager
	active map[msg.TxnID]*ltxn
	stats  EngineStats
	// free recycles the records of finished transactions.
	free []*ltxn
	// locker serves every execution: fragments never overlap.
	locker locker
	// repeated counts lock requests that re-runs made a second time. They
	// are all re-entrant, so LockStats takes them off Acquires and Immediate
	// and reports each request of a fragment once however often it ran.
	repeated uint64
}

type ltxn struct {
	id      msg.TxnID
	mp      bool
	frag    *msg.Fragment
	blocked bool
	// waitEpoch increments on every suspension so that a stale timeout
	// (armed for an earlier wait that was granted) is ignored.
	waitEpoch int
	// requested is how many lock requests the parked attempt made, the one
	// that queued included: what a re-run repeats.
	requested uint64
}

// NewLocking returns a locking engine bound to env.
func NewLocking(env Env, cfg LockConfig) *LockEngine {
	if cfg.DeadlockTimeout == 0 {
		cfg.DeadlockTimeout = DefaultDeadlockTimeout
	}
	return &LockEngine{
		env:    env,
		cfg:    cfg,
		lm:     locks.NewManager(),
		active: make(map[msg.TxnID]*ltxn),
	}
}

// Scheme identifies the engine.
func (e *LockEngine) Scheme() Scheme { return SchemeLocking }

// Stats returns activity counters.
func (e *LockEngine) Stats() EngineStats { return e.stats }

// LockStats exposes the lock manager's counters (§5.6 profiling).
func (e *LockEngine) LockStats() locks.Stats {
	s := e.lm.Stats()
	s.Acquires -= e.repeated
	s.Immediate -= e.repeated
	return s
}

// ActiveCount reports transactions currently holding the partition.
func (e *LockEngine) ActiveCount() int { return len(e.active) }

// Quiescent reports whether no transaction is active; with strict 2PL that
// also means every lock has been released. Stale deadlock timeouts may still
// be scheduled, but Timer ignores expirations for unknown transactions.
func (e *LockEngine) Quiescent() bool { return len(e.active) == 0 }

// Fragment handles an arriving fragment.
func (e *LockEngine) Fragment(f *msg.Fragment) {
	if lt, ok := e.active[f.Txn]; ok {
		// A later round of an active multi-partition transaction.
		e.runFragment(lt, f)
		return
	}
	if len(e.active) == 0 && !f.MultiPartition && !e.cfg.AlwaysLock {
		// Lock-free fast path (§4.3): no active transactions can
		// conflict, and the transaction runs to completion before the
		// partition does anything else.
		RunIdleSP(e.env, f, &e.stats)
		return
	}
	var lt *ltxn
	if n := len(e.free); n > 0 {
		lt, e.free = e.free[n-1], e.free[:n-1]
	} else {
		lt = new(ltxn)
	}
	*lt = ltxn{id: f.Txn, mp: f.MultiPartition}
	e.active[f.Txn] = lt
	e.runFragment(lt, f)
}

// Decision finalizes a multi-partition transaction: strict 2PL releases all
// its locks, waking waiters.
func (e *LockEngine) Decision(d *msg.Decision) {
	e.env.ChargeDecision()
	lt, ok := e.active[d.Txn]
	if !ok {
		// The transaction was already killed here (deadlock victim
		// whose no-vote triggered this abort); nothing to do.
		return
	}
	if lt.blocked {
		// An abort decided elsewhere (another participant voted no) can
		// arrive while our fragment is parked on a lock; Release below
		// cancels the queued request.
		if d.Commit {
			panic(fmt.Sprintf("locking: commit decision for %d while its fragment waits for a lock", d.Txn))
		}
		lt.blocked = false
	}
	if !d.Commit {
		e.env.Rollback(d.Txn)
	}
	e.resume(e.retire(lt))
}

// retire ends lt at this partition: its undo state and its locks go, and the
// record is kept for the next transaction. The grants its release produced
// are the caller's to resume, after it has sent what it has to send.
func (e *LockEngine) retire(lt *ltxn) []locks.Grant {
	e.env.Forget(lt.id)
	delete(e.active, lt.id)
	e.free = append(e.free, lt)
	return e.lm.Release(lt.id)
}

// timeoutMsg asks the engine to check a blocked transaction.
type timeoutMsg struct {
	txn   msg.TxnID
	epoch int
}

// Timer handles distributed-deadlock timeouts.
func (e *LockEngine) Timer(payload any) {
	tm, ok := payload.(timeoutMsg)
	if !ok {
		return
	}
	lt, ok := e.active[tm.txn]
	if !ok || !lt.blocked || lt.waitEpoch != tm.epoch {
		return
	}
	e.stats.TimeoutKills++
	e.kill(lt)
}

// locker implements storage.RangeLocker for the fragment being executed.
type locker struct {
	lm  *locks.Manager
	txn msg.TxnID
	n   uint64 // requests made by this execution
}

// Lock acquires the row lock, or unwinds the fragment body with Suspend when
// the request queues.
func (l *locker) Lock(table, key string, exclusive bool) {
	mode := locks.Shared
	if exclusive {
		mode = locks.Exclusive
	}
	l.acquire(locks.Key{Table: table, Row: key}, mode)
}

// LockRange acquires shared gap coverage of [lo, hi) for a scan, unwinding
// like Lock when a writer holds or wants a key inside the range. Strict 2PL
// holds the range until commit, so no writer can slip a phantom into a
// scanned range before the scanner finishes.
func (l *locker) LockRange(table, lo, hi string) {
	l.acquire(locks.Key{Table: table, Row: lo, Hi: hi, IsRange: true}, locks.Shared)
}

func (l *locker) acquire(k locks.Key, mode locks.Mode) {
	l.n++
	if !l.lm.Acquire(l.txn, k, mode) {
		panic(Suspend{})
	}
}

// runFragment executes f's body and reacts to how it ended.
func (e *LockEngine) runFragment(lt *ltxn, f *msg.Fragment) {
	lt.frag = f
	e.locker = locker{lm: e.lm, txn: lt.id}
	out := e.env.Execute(f, true, &e.locker)
	switch {
	case out.Suspended:
		lt.requested = e.locker.n
		e.park(lt)
	case out.Aborted:
		e.stats.Executed++
		e.stats.LocalAborts++
		e.finishAborted(lt, out.Output, false)
	default:
		e.fragmentCommitted(lt, out.Output)
	}
}

// park records that lt's fragment waits for a lock, and looks for the
// deadlock the new wait may have closed.
func (e *LockEngine) park(lt *ltxn) {
	lt.blocked = true
	lt.waitEpoch++
	if cycle := e.lm.FindCycle(lt.id); cycle != nil {
		e.stats.DeadlockKills++
		e.kill(e.chooseVictim(cycle))
		return
	}
	if lt.mp {
		e.env.After(e.cfg.DeadlockTimeout, timeoutMsg{txn: lt.id, epoch: lt.waitEpoch})
	}
}

// fragmentCommitted handles a fragment body that ran to completion.
func (e *LockEngine) fragmentCommitted(lt *ltxn, out any) {
	e.stats.Executed++
	f := lt.frag
	if lt.mp {
		// Locks are held until the 2PC decision (strict 2PL).
		e.env.SendResult(f, NewResult(f, out, false))
		return
	}
	// Single-partition: the transaction is complete — commit, release.
	grants := e.retire(lt)
	e.env.ReplyClient(f, NewCommitReply(f, out))
	e.resume(grants)
}

// finishAborted cleans up a transaction aborted during execution (user abort,
// with its output) or by a kill (no output). Execute already rolled back its
// effects for user aborts; kills roll back here.
func (e *LockEngine) finishAborted(lt *ltxn, out any, killed bool) {
	e.env.Rollback(lt.id)
	grants := e.retire(lt)
	if killed {
		SendKilled(e.env, lt.frag)
	} else {
		SendAborted(e.env, lt.frag, out)
	}
	e.resume(grants)
}

// kill terminates a parked victim: roll back its earlier rounds (the parked
// fragment is already undone), release its locks and its queued request, and
// tell its coordinator/client.
func (e *LockEngine) kill(lt *ltxn) {
	if !lt.blocked {
		panic("locking: kill of non-blocked transaction")
	}
	lt.blocked = false
	e.finishAborted(lt, nil, true)
}

// resume re-runs the fragments whose lock requests were just granted.
func (e *LockEngine) resume(grants []locks.Grant) {
	for _, g := range grants {
		lt, ok := e.active[g.Txn]
		if !ok || !lt.blocked {
			continue
		}
		lt.blocked = false
		e.repeated += lt.requested
		e.runFragment(lt, lt.frag)
	}
}

// chooseVictim picks which member of a deadlock cycle to kill: prefer
// single-partition transactions, which waste less work when re-executed
// (§4.3); fall back to the transaction with the fewest held locks.
func (e *LockEngine) chooseVictim(cycle []msg.TxnID) *ltxn {
	var candidates []*ltxn
	for _, id := range cycle {
		if lt, ok := e.active[id]; ok && lt.blocked {
			candidates = append(candidates, lt)
		}
	}
	if len(candidates) == 0 {
		panic("locking: deadlock cycle with no blocked members")
	}
	sort.Slice(candidates, func(i, j int) bool {
		ci, cj := candidates[i], candidates[j]
		if ci.mp != cj.mp {
			return !ci.mp // single-partition first
		}
		hi, hj := e.lm.HeldCount(ci.id), e.lm.HeldCount(cj.id)
		if hi != hj {
			return hi < hj
		}
		return ci.id < cj.id
	})
	return candidates[0]
}
