package core

import (
	"fmt"

	"specdb/internal/msg"
)

// SpecEngine implements speculative concurrency control (§4.2, Figure 3).
//
// The partition keeps two queues: unexecuted fragments, and an uncommitted
// queue of executed transactions awaiting 2PC outcomes whose head is the only
// non-speculative entry. Once the head has executed its last local fragment,
// queued transactions execute speculatively with undo buffers:
//
//   - Single-partition transactions execute and their replies are held until
//     every earlier uncommitted transaction commits (local speculation,
//     §4.2.1), because clients are unaware of the speculation.
//   - Multi-partition fragments from the same coordinator execute and their
//     results are returned immediately, tagged with a dependency on the
//     previous multi-partition transaction, letting the coordinator overlap
//     2PC for a chain of simple multi-partition transactions (§4.2.2).
//
// If the head aborts, every speculative transaction is undone in reverse
// order and requeued for re-execution in the original order — speculation
// assumes all transactions conflict, trading occasional wasted work for zero
// read/write-set tracking.
type SpecEngine struct {
	env Env
	cfg SpecConfig
	// unexecuted holds fragments of transactions not yet started.
	unexecuted []*msg.Fragment
	// unc is the uncommitted transaction queue.
	unc   []*specTxn
	stats EngineStats
}

type specTxn struct {
	id   msg.TxnID
	frag *msg.Fragment // most recent fragment (round 0 unless head)
	mp   bool
	// finished means the last local fragment has executed; only then may
	// later transactions speculate (§4.2).
	finished bool
	// speculative is cleared when the transaction reaches the head of the
	// queue ("the head ... is always a non-speculative transaction").
	speculative bool
	// dependsOn is the previous multi-partition transaction this one's
	// speculative results are conditioned on.
	dependsOn msg.TxnID
	// heldReply buffers a speculated single-partition transaction's reply
	// until it is known to be correct.
	heldReply *msg.ClientReply
	// abortedLocally records a user/injected abort during execution; its
	// effects were rolled back immediately.
	abortedLocally bool
}

// SpecConfig tunes the speculative engine.
type SpecConfig struct {
	// LocalOnly restricts the engine to local speculation (§4.2.1):
	// multi-partition transactions are never speculated, only queued.
	// This is the ablation behind Figure 10's "Local Spec" curves.
	LocalOnly bool
}

// NewSpeculative returns a speculative engine bound to env.
func NewSpeculative(env Env) *SpecEngine {
	return &SpecEngine{env: env}
}

// NewSpeculativeWith returns a speculative engine with explicit options.
func NewSpeculativeWith(env Env, cfg SpecConfig) *SpecEngine {
	return &SpecEngine{env: env, cfg: cfg}
}

// Scheme identifies the engine.
func (e *SpecEngine) Scheme() Scheme { return SchemeSpeculative }

// Stats returns activity counters.
func (e *SpecEngine) Stats() EngineStats { return e.stats }

// UncommittedLen and UnexecutedLen expose queue depths for tests.
func (e *SpecEngine) UncommittedLen() int { return len(e.unc) }
func (e *SpecEngine) UnexecutedLen() int  { return len(e.unexecuted) }

// Quiescent reports whether both the uncommitted and unexecuted queues are
// empty.
func (e *SpecEngine) Quiescent() bool { return len(e.unc) == 0 && len(e.unexecuted) == 0 }

func (e *SpecEngine) find(id msg.TxnID) *specTxn {
	for _, u := range e.unc {
		if u.id == id {
			return u
		}
	}
	return nil
}

// Fragment handles an arriving fragment per Figure 3.
func (e *SpecEngine) Fragment(f *msg.Fragment) {
	if u := e.find(f.Txn); u != nil {
		// A later round of an uncommitted multi-partition transaction.
		e.execContinue(u, f)
		if u.finished {
			e.pump()
		}
		return
	}
	if len(e.unc) == 0 && len(e.unexecuted) == 0 {
		// No active transactions.
		e.startFresh(f)
		return
	}
	e.unexecuted = append(e.unexecuted, f)
	e.pump()
}

// startFresh runs a fragment when the partition has no active transactions.
func (e *SpecEngine) startFresh(f *msg.Fragment) {
	if !f.MultiPartition {
		RunIdleSP(e.env, f, &e.stats)
		return
	}
	u := &specTxn{id: f.Txn, frag: f, mp: true}
	e.unc = append(e.unc, u)
	e.execContinue(u, f)
}

// execContinue executes a fragment of an uncommitted transaction and sends
// its result (the vote, when last).
func (e *SpecEngine) execContinue(u *specTxn, f *msg.Fragment) {
	u.frag = f
	out := e.env.Execute(f, true, nil)
	e.stats.Executed++
	if out.Aborted {
		u.abortedLocally = true
		e.stats.LocalAborts++
	}
	if f.Last {
		u.finished = true
	}
	r := NewResult(f, out.Output, out.Aborted)
	if u.speculative {
		r.Speculative = true
		r.DependsOn = u.dependsOn
	}
	e.env.SendResult(f, r)
}

// pump speculates queued transactions while permitted (Figure 3's
// "speculate queued transactions" / "execute/speculate queued transactions").
func (e *SpecEngine) pump() {
	for len(e.unexecuted) > 0 {
		f := e.unexecuted[0]
		if len(e.unc) == 0 {
			// Queue drained back to non-speculative execution.
			e.unexecuted = e.unexecuted[1:]
			e.startFresh(f)
			continue
		}
		tail := e.unc[len(e.unc)-1]
		if !tail.finished {
			return
		}
		if f.MultiPartition && (e.cfg.LocalOnly || !e.sameCoordinator(f)) {
			// Multi-partition speculation requires one coordinator
			// aware of the whole chain (§4.2.2), and is disabled
			// entirely under local-only speculation (§4.2.1).
			return
		}
		e.unexecuted = e.unexecuted[1:]
		e.speculate(f)
	}
}

// sameCoordinator reports whether every uncommitted multi-partition
// transaction shares f's coordinator.
func (e *SpecEngine) sameCoordinator(f *msg.Fragment) bool {
	for _, u := range e.unc {
		if u.mp && u.frag.Coord != f.Coord {
			return false
		}
	}
	return true
}

// lastMP returns the most recent multi-partition transaction in the
// uncommitted queue. The queue is never empty here: speculation only happens
// behind an uncommitted multi-partition head.
func (e *SpecEngine) lastMP() *specTxn {
	for i := len(e.unc) - 1; i >= 0; i-- {
		if e.unc[i].mp {
			return e.unc[i]
		}
	}
	panic("speculation: uncommitted queue has no multi-partition transaction")
}

// speculate executes f speculatively with an undo buffer.
func (e *SpecEngine) speculate(f *msg.Fragment) {
	dep := e.lastMP()
	u := &specTxn{
		id:          f.Txn,
		frag:        f,
		mp:          f.MultiPartition,
		speculative: true,
		dependsOn:   dep.id,
	}
	out := e.env.Execute(f, true, nil)
	e.stats.Executed++
	e.stats.Speculated++
	if out.Aborted {
		u.abortedLocally = true
		e.stats.LocalAborts++
	}
	u.finished = f.Last
	e.unc = append(e.unc, u)
	if u.mp {
		// Same coordinator: expose the speculative result immediately,
		// tagged with its dependency (§4.2.2).
		r := NewResult(f, out.Output, out.Aborted)
		r.Speculative = true
		r.DependsOn = u.dependsOn
		e.env.SendResult(f, r)
		return
	}
	// Single-partition: the client is unaware of speculation, so the
	// reply is buffered until all earlier transactions commit (§4.2.1).
	if out.Aborted {
		u.heldReply = NewAbortReply(f, out.Output)
	} else {
		u.heldReply = NewCommitReply(f, out.Output)
	}
}

// Decision applies a 2PC outcome. Decisions arrive in global order, so they
// always target the head of the uncommitted queue — except for participant-
// failure aborts, which may reach this partition before it ever executed the
// transaction.
func (e *SpecEngine) Decision(d *msg.Decision) {
	e.env.ChargeDecision()
	if len(e.unc) == 0 || e.unc[0].id != d.Txn {
		if d.Commit {
			panic(fmt.Sprintf("speculation: commit for %d does not match head", d.Txn))
		}
		if u := e.find(d.Txn); u != nil {
			panic(fmt.Sprintf("speculation: abort for uncommitted non-head %d (ordering violated)", d.Txn))
		}
		// Failover abort for a transaction still waiting in the unexecuted
		// queue (or never seen at all): discard its fragments.
		e.dropUnexecuted(d.Txn)
		return
	}
	if d.Commit {
		e.commitHead()
	} else {
		e.abortHead()
	}
	e.pump()
}

// dropUnexecuted discards every unexecuted fragment of an aborted-before-
// execution transaction (participant-failure 2PC abort), then undoes and
// re-executes the uncommitted queue. The re-execution is not optional: the
// abort bumped the coordinator's generation for this partition, so any
// speculative result sent before it may have been discarded — and unlike a
// normal abort (whose victim executed here, so its decision triggers the
// abortHead cascade), dropping a never-executed fragment would otherwise
// resend nothing, deadlocking the coordinator (§4.2.2's "undo, re-execute
// and resend" contract).
func (e *SpecEngine) dropUnexecuted(id msg.TxnID) {
	kept := e.unexecuted[:0]
	for _, f := range e.unexecuted {
		if f.Txn != id {
			kept = append(kept, f)
		}
	}
	e.unexecuted = kept
	e.env.Forget(id)
	low := 0
	if len(e.unc) > 0 && e.unc[0].frag.Round > 0 {
		// A mid-round head keeps its place: its current-round results are
		// non-speculative (round advancement implies its dependencies
		// committed and it executed as head), so nothing of its round was
		// discarded — and only its latest fragment is requeueable anyway.
		low = 1
	}
	e.requeueFrom(low)
	e.pump()
}

// requeueFrom undoes the uncommitted transactions from index low up, newest
// first, and pushes their fragments back onto the head of the unexecuted
// queue for re-execution; walking from the tail preserves original order.
func (e *SpecEngine) requeueFrom(low int) {
	for i := len(e.unc) - 1; i >= low; i-- {
		u := e.unc[i]
		e.env.Rollback(u.id)
		e.env.Forget(u.id)
		e.unexecuted = append([]*msg.Fragment{u.frag}, e.unexecuted...)
		e.stats.Redone++
	}
	e.unc = e.unc[:low]
}

// commitHead commits the head and releases speculated single-partition
// transactions up to the next multi-partition one, which becomes the new
// non-speculative head.
func (e *SpecEngine) commitHead() {
	head := e.unc[0]
	e.unc = e.unc[1:]
	e.env.Forget(head.id)
	for len(e.unc) > 0 && !e.unc[0].mp {
		u := e.unc[0]
		e.unc = e.unc[1:]
		e.env.Forget(u.id)
		e.env.ReplyClient(u.frag, u.heldReply)
	}
	if len(e.unc) > 0 {
		e.unc[0].speculative = false
	}
}

// abortHead rolls back the head and every speculative transaction, requeueing
// the speculative ones for re-execution in their original order (§4.2.1).
func (e *SpecEngine) abortHead() {
	e.requeueFrom(1)
	head := e.unc[0]
	e.env.Rollback(head.id)
	e.env.Forget(head.id)
	e.unc = e.unc[:0]
}

// Timer is unused by the speculative scheme.
func (e *SpecEngine) Timer(payload any) {}
