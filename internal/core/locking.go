package core

import (
	"errors"
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
// access data and suspend on conflict.
//
// Suspension uses fibers: each executing fragment runs on its own goroutine
// with strict synchronous handoff (engine and fiber are never runnable
// simultaneously), so execution can block mid-fragment while the engine
// stays deterministic. Local deadlocks are detected by waits-for cycle
// search at block time, preferring single-partition victims; distributed
// deadlocks fall to a timeout.
type LockEngine struct {
	env    Env
	cfg    LockConfig
	lm     *locks.Manager
	active map[msg.TxnID]*ltxn
	stats  EngineStats
}

type ltxn struct {
	id       msg.TxnID
	mp       bool
	frag     *msg.Fragment
	fiber    *fiber
	blocked  bool
	finished bool // voted (last fragment executed)
	// waitEpoch increments on every suspension so that a stale timeout
	// (armed for an earlier wait that was granted) is ignored.
	waitEpoch int
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
func (e *LockEngine) LockStats() locks.Stats { return e.lm.Stats() }

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
	lt := &ltxn{id: f.Txn, mp: f.MultiPartition, frag: f}
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
	if lt.fiber != nil {
		// An abort decided elsewhere (another participant voted no)
		// can arrive while our fragment is still blocked on a lock:
		// unwind the fiber first.
		if d.Commit || !lt.blocked {
			panic(fmt.Sprintf("locking: decision commit=%v for %d while fragment in flight", d.Commit, d.Txn))
		}
		lt.blocked = false
		lt.fiber.resume <- false
		if y := <-lt.fiber.yield; !y.done || y.err != errKilled {
			panic("locking: fiber did not unwind on abort decision")
		}
		lt.fiber = nil
	}
	if !d.Commit {
		e.env.Rollback(d.Txn)
	}
	e.env.Forget(d.Txn)
	delete(e.active, d.Txn)
	e.resume(e.lm.Release(d.Txn))
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

// errKilled marks a fragment terminated as a deadlock or timeout victim.
var errKilled = errors.New("locking: killed")

// killSentinel is the panic value used to unwind a victim's fiber.
type killSentinel struct{}

// fiber is a suspended fragment execution. Handoff is strictly synchronous:
// the engine blocks on yield whenever the fiber is runnable, and the fiber
// blocks on resume whenever the engine is runnable.
type fiber struct {
	resume chan bool // engine → fiber: true = lock granted, false = killed
	yield  chan fiberYield
}

type fiberYield struct {
	done bool
	out  any
	err  error
}

// fiberLocker implements storage.Locker for a fragment running on a fiber.
type fiberLocker struct {
	eng *LockEngine
	lt  *ltxn
}

// Lock acquires the row lock, suspending the fiber on conflict. The handoff
// guarantees the lock manager is only touched while the engine goroutine is
// parked, so there is no physical concurrency — matching the paper's
// latch-free single-threaded lock manager.
func (l *fiberLocker) Lock(table, key string, exclusive bool) {
	mode := locks.Shared
	if exclusive {
		mode = locks.Exclusive
	}
	l.acquire(locks.Key{Table: table, Row: key}, mode)
}

// LockRange acquires shared gap coverage of [lo, hi) for a scan, suspending
// the fiber like Lock when a writer holds or wants a key inside the range.
// Strict 2PL holds the range until commit, so no writer can slip a phantom
// into a scanned range before the scanner finishes.
func (l *fiberLocker) LockRange(table, lo, hi string) {
	l.acquire(locks.Key{Table: table, Row: lo, Hi: hi, IsRange: true}, locks.Shared)
}

func (l *fiberLocker) acquire(k locks.Key, mode locks.Mode) {
	if l.eng.lm.Acquire(l.lt.id, k, mode) {
		return
	}
	l.lt.fiber.yield <- fiberYield{done: false}
	if granted := <-l.lt.fiber.resume; !granted {
		panic(killSentinel{})
	}
}

// runFragment starts f's body on a fresh fiber and services it until it
// completes or suspends.
func (e *LockEngine) runFragment(lt *ltxn, f *msg.Fragment) {
	lt.frag = f
	fb := &fiber{resume: make(chan bool), yield: make(chan fiberYield)}
	lt.fiber = fb
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSentinel); isKill {
					fb.yield <- fiberYield{done: true, err: errKilled}
					return
				}
				panic(r)
			}
		}()
		out := e.env.Execute(f, true, &fiberLocker{eng: e, lt: lt})
		var err error
		if out.Aborted {
			err = errUserAborted
		}
		fb.yield <- fiberYield{done: true, out: out.Output, err: err}
	}()
	e.service(lt)
}

var errUserAborted = errors.New("locking: user aborted")

// service waits for lt's fiber to yield and reacts.
func (e *LockEngine) service(lt *ltxn) {
	y := <-lt.fiber.yield
	if !y.done {
		// Suspended on a lock conflict.
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
		return
	}
	lt.fiber = nil
	switch y.err {
	case nil:
		e.fragmentCommitted(lt, y.out)
	case errUserAborted:
		e.stats.Executed++
		e.stats.LocalAborts++
		e.finishAborted(lt, y.out, false)
	case errKilled:
		// kill() completes the cleanup.
	default:
		panic(y.err)
	}
}

// fragmentCommitted handles a fragment body that ran to completion.
func (e *LockEngine) fragmentCommitted(lt *ltxn, out any) {
	e.stats.Executed++
	f := lt.frag
	if lt.mp {
		if f.Last {
			lt.finished = true
		}
		// Locks are held until the 2PC decision (strict 2PL).
		e.env.SendResult(f, NewResult(f, out, false))
		return
	}
	// Single-partition: the transaction is complete — commit, release.
	e.env.Forget(lt.id)
	delete(e.active, lt.id)
	grants := e.lm.Release(lt.id)
	e.env.ReplyClient(f, NewCommitReply(f, out))
	e.resume(grants)
}

// finishAborted cleans up a transaction aborted during execution (user abort,
// with its output) or by a kill (no output). Execute already rolled back its
// effects for user aborts; kills roll back here.
func (e *LockEngine) finishAborted(lt *ltxn, out any, killed bool) {
	e.env.Rollback(lt.id)
	e.env.Forget(lt.id)
	delete(e.active, lt.id)
	grants := e.lm.Release(lt.id)
	if killed {
		SendKilled(e.env, lt.frag)
	} else {
		SendAborted(e.env, lt.frag, out)
	}
	e.resume(grants)
}

// kill terminates a blocked victim: unwind its fiber, roll back, release its
// locks and waits, and tell its coordinator/client.
func (e *LockEngine) kill(lt *ltxn) {
	if !lt.blocked {
		panic("locking: kill of non-blocked transaction")
	}
	lt.blocked = false
	lt.fiber.resume <- false
	y := <-lt.fiber.yield
	if !y.done || y.err != errKilled {
		panic("locking: victim fiber did not unwind")
	}
	lt.fiber = nil
	e.finishAborted(lt, nil, true)
}

// resume restarts fibers whose lock requests were just granted.
func (e *LockEngine) resume(grants []locks.Grant) {
	for _, g := range grants {
		lt, ok := e.active[g.Txn]
		if !ok || !lt.blocked {
			continue
		}
		lt.blocked = false
		lt.fiber.resume <- true
		e.service(lt)
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
