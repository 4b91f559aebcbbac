// Package core implements the paper's contribution: low-overhead
// concurrency control schemes for single-threaded, partitioned, main-memory
// execution engines.
//
//   - Blocking (§4.1, Figure 2): one transaction at a time; the partition
//     idles during the network stalls of multi-partition transactions.
//   - Speculative execution (§4.2, Figure 3): during the 2PC stall of a
//     finished multi-partition transaction, queued transactions execute
//     speculatively with undo buffers; aborts cascade, commits release.
//   - Locking (§4.3): strict two-phase locking specialized for logical (not
//     physical) concurrency, with a lock-free fast path when no transactions
//     are active, waits-for cycle detection, and distributed-deadlock
//     timeouts.
//
// Two beyond-the-paper schemes from the main-memory literature (Larson et
// al.) live in sibling packages behind the same Engine interface:
// multiversion timestamp ordering (internal/mvcc) and optimistic validation
// (internal/occ).
//
// Engines are pure state machines: all I/O, storage, timing and replication
// effects go through the Env interface provided by the hosting partition
// process (internal/partition), which keeps the schemes directly
// unit-testable.
package core

import (
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// Scheme names a concurrency control scheme.
type Scheme int

const (
	// SchemeBlocking executes one transaction at a time (§4.1).
	SchemeBlocking Scheme = iota
	// SchemeSpeculative overlaps 2PC stalls with speculative work (§4.2).
	SchemeSpeculative
	// SchemeLocking is single-threaded strict two-phase locking (§4.3).
	SchemeLocking
	// SchemeMVCC is multiversion timestamp ordering (internal/mvcc):
	// read-only transactions read a consistent snapshot and never block or
	// abort; conflicting writes abort the later timestamp.
	SchemeMVCC
	// SchemeOCC is optimistic concurrency control (internal/occ): read/write
	// sets are tracked during execution and validated at commit; validation
	// failure aborts and retries through the client resend path.
	SchemeOCC
)

func (s Scheme) String() string {
	switch s {
	case SchemeBlocking:
		return "blocking"
	case SchemeSpeculative:
		return "speculation"
	case SchemeLocking:
		return "locking"
	case SchemeMVCC:
		return "mvcc"
	case SchemeOCC:
		return "occ"
	}
	return "unknown"
}

// ExecOutcome is the result of running one fragment body.
type ExecOutcome struct {
	Output any
	// Aborted is true after a user abort or an injected abort. The
	// transaction's effects at this partition have already been rolled
	// back when Aborted is true.
	Aborted bool
	// Suspended is true when the locker unwound the body with Suspend: the
	// fragment's own effects are undone, nothing was charged or logged, and
	// the engine re-runs it from its start once the lock is granted.
	Suspended bool
}

// Env is the environment a concurrency control engine drives. It is
// implemented by the partition process (and by lightweight fakes in tests).
type Env interface {
	// Execute runs f's body against partition storage. withUndo records
	// before-images under f.Txn so the transaction can roll back; locker,
	// when non-nil, receives a Lock call for every row touched. On a user or
	// injected abort Execute rolls the transaction back before returning.
	// When the locker panics with Suspend (it may only under withUndo),
	// Execute recovers it, rolls back to where this fragment started
	// (earlier fragments of f.Txn stay) and reports Suspended; a
	// ConflictKill passes through to ExecuteTracked.
	Execute(f *msg.Fragment, withUndo bool, locker storage.Locker) ExecOutcome
	// Rollback undoes everything f.Txn has executed at this partition.
	// It is a no-op if the transaction already rolled back.
	Rollback(txn msg.TxnID)
	// Forget releases undo state for a finished transaction.
	Forget(txn msg.TxnID)
	// SendResult returns a fragment result (and, when f.Last, the 2PC
	// vote) to f.Coord. The partition layer may gate it on replication.
	SendResult(f *msg.Fragment, r *msg.FragmentResult)
	// ReplyClient completes a single-partition transaction at f.Client.
	ReplyClient(f *msg.Fragment, reply *msg.ClientReply)
	// After delivers payload to Engine.Timer after d of virtual time.
	After(d sim.Time, payload any)
	// ChargeDecision charges the CPU cost of commit/abort processing.
	ChargeDecision()
}

// Engine is a partition's concurrency control state machine. The partition
// process feeds it arriving fragments, 2PC decisions and timer expirations.
//
// Engines are swappable at quiescent points: when Quiescent reports true the
// engine holds no transaction state, so the hosting partition may retire it
// and hand the partition's store and undo ledger to a freshly constructed
// engine of a different scheme (online adaptive concurrency control, §5.7).
type Engine interface {
	Scheme() Scheme
	Fragment(f *msg.Fragment)
	Decision(d *msg.Decision)
	Timer(payload any)
	Stats() EngineStats
	// Quiescent reports whether the engine holds no transaction state: no
	// active, queued, uncommitted or lock-holding transactions. A quiescent
	// engine will never again touch storage, undo buffers or the network
	// unless a new fragment arrives, so it can be retired and replaced.
	// Stale timer expirations armed by a retired engine are delivered to
	// its successor, which must ignore payloads it does not recognize.
	Quiescent() bool
}

// EngineStats counts scheme-level activity.
type EngineStats struct {
	// Executed counts fragment executions, including re-executions.
	Executed uint64
	// FastPath counts single-partition transactions run with no undo, no
	// locks and no queueing.
	FastPath uint64
	// Speculated counts speculative fragment executions.
	Speculated uint64
	// Redone counts transactions undone and re-executed by cascading
	// aborts (§4.2.1).
	Redone uint64
	// LocalAborts counts user/injected aborts observed at this partition.
	LocalAborts uint64
	// DeadlockKills and TimeoutKills count victims of local cycle
	// detection and of the distributed deadlock timeout (§4.3).
	DeadlockKills uint64
	TimeoutKills  uint64
	// ValidationAborts counts transactions the OCC engine killed because
	// commit-time validation failed (stale read set or conflicting write).
	ValidationAborts uint64
	// TSOrderAborts counts transactions the MVCC engine killed because an
	// access conflicted with a concurrent transaction in timestamp order.
	TSOrderAborts uint64
}

// Add returns the field-wise sum of two stat sets. The hosting partition uses
// it to carry counters across engine swaps, so whole-run statistics survive
// adaptive scheme switches.
func (s EngineStats) Add(o EngineStats) EngineStats {
	return EngineStats{
		Executed:         s.Executed + o.Executed,
		FastPath:         s.FastPath + o.FastPath,
		Speculated:       s.Speculated + o.Speculated,
		Redone:           s.Redone + o.Redone,
		LocalAborts:      s.LocalAborts + o.LocalAborts,
		DeadlockKills:    s.DeadlockKills + o.DeadlockKills,
		TimeoutKills:     s.TimeoutKills + o.TimeoutKills,
		ValidationAborts: s.ValidationAborts + o.ValidationAborts,
		TSOrderAborts:    s.TSOrderAborts + o.TSOrderAborts,
	}
}

// ConflictKill is the panic sentinel an optimistic engine's access-tracking
// storage.Locker throws when an access loses the engine's conflict rule.
type ConflictKill struct{}

// Suspend is the panic sentinel the locking engine's storage.Locker throws
// when a lock request has to queue. Env.Execute recovers it (see there).
type Suspend struct{}

// ExecuteTracked runs f with an undo buffer under an access-tracking locker
// and reports whether the locker killed the execution mid-fragment by
// panicking with ConflictKill; the caller rolls a killed transaction back.
func ExecuteTracked(env Env, f *msg.Fragment, locker storage.Locker) (out ExecOutcome, killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(ConflictKill); !ok {
				panic(r)
			}
			killed = true
		}
	}()
	return env.Execute(f, true, locker), false
}

// RunIdleSP is the fast path every scheme shares (§3.2): a single-partition
// fragment arriving at a partition with no active transactions runs to
// completion at once — no undo buffer unless a user abort is possible, no
// locks, no tracking — and is answered immediately.
func RunIdleSP(env Env, f *msg.Fragment, stats *EngineStats) {
	out := env.Execute(f, f.CanAbort, nil)
	stats.Executed++
	stats.FastPath++
	env.Forget(f.Txn)
	if out.Aborted {
		stats.LocalAborts++
		env.ReplyClient(f, NewAbortReply(f, out.Output))
		return
	}
	env.ReplyClient(f, NewCommitReply(f, out.Output))
}

// SendAborted reports a user or injected abort of f's transaction, whose
// effects are already rolled back: a no vote to the coordinator, or the
// completed-with-abort reply to the client.
func SendAborted(env Env, f *msg.Fragment, out any) {
	if f.MultiPartition {
		env.SendResult(f, NewResult(f, out, true))
	} else {
		env.ReplyClient(f, NewAbortReply(f, out))
	}
}

// SendKilled reports that the engine killed f's transaction (deadlock or
// timeout victim, timestamp-order or validation loser): the coordinator
// aborts the other participants, and the client retries under a fresh ID.
func SendKilled(env Env, f *msg.Fragment) {
	if f.MultiPartition {
		env.SendResult(f, NewKilledResult(f))
	} else {
		env.ReplyClient(f, NewRetryReply(f))
	}
}

// NewCommitReply builds the client reply for a committed single-partition
// transaction.
func NewCommitReply(f *msg.Fragment, out any) *msg.ClientReply {
	return &msg.ClientReply{Txn: f.Txn, Output: out, Committed: true}
}

// NewAbortReply builds the client reply for a user-aborted single-partition
// transaction. User aborts are completed transactions, not failures (§5.3).
func NewAbortReply(f *msg.Fragment, out any) *msg.ClientReply {
	return &msg.ClientReply{Txn: f.Txn, Output: out, UserAborted: true}
}

// NewRetryReply builds the client reply for a single-partition transaction the
// engine killed: nothing happened, and the client retries it.
func NewRetryReply(f *msg.Fragment) *msg.ClientReply {
	return &msg.ClientReply{Txn: f.Txn, Retryable: true}
}

// NewResult builds a multi-partition fragment's result (the 2PC vote when
// f.Last): aborted reports a user or injected abort, i.e. a no vote.
func NewResult(f *msg.Fragment, out any, aborted bool) *msg.FragmentResult {
	return &msg.FragmentResult{Txn: f.Txn, Round: f.Round, Partition: f.Partition, Output: out, Aborted: aborted}
}

// NewKilledResult builds the no vote of a multi-partition transaction the
// engine killed.
func NewKilledResult(f *msg.Fragment) *msg.FragmentResult {
	return &msg.FragmentResult{Txn: f.Txn, Round: f.Round, Partition: f.Partition, Aborted: true, Killed: true}
}
