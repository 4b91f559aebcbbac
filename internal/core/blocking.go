package core

import (
	"fmt"

	"specdb/internal/msg"
)

// BlockingEngine implements §4.1 (Figure 2): the partition executes one
// transaction at a time. Single-partition transactions run to completion on
// arrival when the partition is idle; a multi-partition transaction occupies
// the partition from its first fragment until its 2PC decision, and every
// other transaction queues behind it.
type BlockingEngine struct {
	env Env
	// active is the multi-partition transaction currently occupying the
	// partition, or nil.
	active *blockedTxn
	// queue holds round-0 fragments awaiting the active transaction.
	// Invariant: empty whenever active == nil at event boundaries.
	queue []*msg.Fragment
	stats EngineStats
}

type blockedTxn struct {
	id   msg.TxnID
	frag *msg.Fragment
}

// NewBlocking returns a blocking engine bound to env.
func NewBlocking(env Env) *BlockingEngine {
	return &BlockingEngine{env: env}
}

// Scheme identifies the engine.
func (e *BlockingEngine) Scheme() Scheme { return SchemeBlocking }

// Stats returns activity counters.
func (e *BlockingEngine) Stats() EngineStats { return e.stats }

// QueueLen reports the number of waiting fragments (for tests).
func (e *BlockingEngine) QueueLen() int { return len(e.queue) }

// Quiescent reports whether no transaction occupies the partition and the
// queue is empty.
func (e *BlockingEngine) Quiescent() bool { return e.active == nil && len(e.queue) == 0 }

// Fragment handles an arriving transaction fragment per Figure 2.
func (e *BlockingEngine) Fragment(f *msg.Fragment) {
	if e.active != nil {
		if f.Txn == e.active.id {
			// Continues the active multi-partition transaction.
			e.execMultiFragment(e.active, f)
			return
		}
		e.queue = append(e.queue, f)
		return
	}
	e.start(f)
}

// start runs a fragment when the partition is idle.
func (e *BlockingEngine) start(f *msg.Fragment) {
	if !f.MultiPartition {
		RunIdleSP(e.env, f, &e.stats)
		return
	}
	e.active = &blockedTxn{id: f.Txn, frag: f}
	e.execMultiFragment(e.active, f)
}

// execMultiFragment executes one fragment of the active multi-partition
// transaction with an undo buffer and returns the result (the 2PC vote when
// f.Last).
func (e *BlockingEngine) execMultiFragment(t *blockedTxn, f *msg.Fragment) {
	t.frag = f
	out := e.env.Execute(f, true, nil)
	e.stats.Executed++
	if out.Aborted {
		e.stats.LocalAborts++
	}
	e.env.SendResult(f, NewResult(f, out.Output, out.Aborted))
}

// Decision finalizes the active multi-partition transaction and drains the
// queue.
func (e *BlockingEngine) Decision(d *msg.Decision) {
	e.env.ChargeDecision()
	if e.active == nil || e.active.id != d.Txn {
		if d.Commit {
			panic(fmt.Sprintf("blocking: commit for %d but active is %+v", d.Txn, e.active))
		}
		// An abort may target a transaction this partition never started:
		// when a participant crashes, the coordinator aborts its in-flight
		// transactions, and this partition may still hold their fragments
		// queued behind the active transaction (or have none at all).
		e.dropQueued(d.Txn)
		return
	}
	if !d.Commit {
		e.env.Rollback(d.Txn)
	}
	e.env.Forget(d.Txn)
	e.active = nil
	e.pump()
}

// dropQueued discards every queued fragment of an aborted-before-execution
// transaction (participant-failure 2PC abort).
func (e *BlockingEngine) dropQueued(id msg.TxnID) {
	kept := e.queue[:0]
	for _, f := range e.queue {
		if f.Txn != id {
			kept = append(kept, f)
		}
	}
	e.queue = kept
	e.env.Forget(id)
}

// pump executes queued transactions until a multi-partition transaction
// becomes active or the queue empties.
func (e *BlockingEngine) pump() {
	for len(e.queue) > 0 && e.active == nil {
		f := e.queue[0]
		e.queue = e.queue[1:]
		e.start(f)
	}
}

// Timer is unused by the blocking scheme.
func (e *BlockingEngine) Timer(payload any) {}
