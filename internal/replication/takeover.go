package replication

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/partition"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// replay is the one value both record sources reduce to — a transaction
// forwarded on the FIFO replica link (*msg.ReplicaForward) or read off the
// command-log tail (durable.Record): the procedure and the fragment inputs
// the primary executed, in execution order, remote reads baked in.
type replay struct {
	txn   msg.TxnID
	proc  string
	works []any
}

// takeover is the one state machine by which a standby process becomes its
// partition's primary; Backup (promotion) and Restarter (crash-restart) embed
// it. Before the takeover the embedding actor feeds it the primary's commit
// stream: committed transactions apply to Store at once, prepared ones wait in
// the buffer for their decision. takeOver then builds a partition process
// around Store and asks the coordinator for the outcomes of whatever is still
// buffered (RecoveryQuery → RecoveryOutcome, plus Recovery-flagged Decisions
// for transactions the coordinator had not decided either). Until every
// buffered transaction is resolved new fragments are stashed: applying a late
// old-world commit underneath an engine holding uncommitted undo state could
// let a later rollback erase the committed write. Client recovery resends are
// answered from the replayed replies, so no transaction commits twice.
type takeover struct {
	// Store is the standby's copy of the partition: a backup's replica, or
	// the checkpoint snapshot a restarter replays the log tail onto.
	Store    *storage.Store
	Registry *txn.Registry
	Costs    *costs.Model
	Net      *simnet.Net
	// Partition is the partition taken over; Coordinator receives the
	// RecoveryQuery.
	Partition   msg.PartitionID
	Coordinator sim.ActorID
	// EngineFactory builds the concurrency control engine at takeover; the
	// facade keeps it current across adaptive scheme switches.
	EngineFactory func(env core.Env) core.Engine
	// Rec records the failover/recovery timeline (may be nil in unit tests).
	Rec *metrics.Collector
	// Applied counts transactions re-executed against Store.
	Applied uint64

	self sim.ActorID

	// buffered holds prepared-but-undecided transactions; bufOrder keeps
	// their first-seen order for the recovery query.
	buffered map[msg.TxnID]replay
	bufOrder []msg.TxnID
	// lastReply holds, per client, the reply of its most recently applied
	// committed single-partition transaction: with closed-loop clients,
	// exactly the deduplication state the new primary needs.
	lastReply map[sim.ActorID]*msg.ClientReply

	// promoted is the partition process this actor became; resolved is set
	// once the RecoveryOutcome has arrived AND the buffer has emptied.
	promoted                 *partition.Partition
	outcomeSeen, resolved    bool
	stash                    []*msg.Fragment
	bufCommitted, bufDropped int

	// view is the reusable replay view (apply is synchronous).
	view storage.TxnView

	// What differs by role, set by the embedding actor's constructor:
	// afterResolve passes a recovered outcome on (to the peer backups, or into
	// the log the crash lost it from) and noteResumed is the metrics call
	// marking the end of the takeover.
	afterResolve func(ctx *sim.Context, id msg.TxnID, commit bool)
	noteResumed  func(rec *metrics.Collector, part int, at sim.Time, committed, dropped int)
}

func newTakeover(store *storage.Store, reg *txn.Registry, c *costs.Model, net *simnet.Net) takeover {
	return takeover{
		Store:     store,
		Registry:  reg,
		Costs:     c,
		Net:       net,
		buffered:  make(map[msg.TxnID]replay),
		lastReply: make(map[sim.ActorID]*msg.ClientReply),
	}
}

// Bind sets the actor's own ID (after scheduler registration).
func (t *takeover) Bind(self sim.ActorID) { t.self = self }

// BufferedLen counts buffered transactions (tests: zero at quiescence).
func (t *takeover) BufferedLen() int { return len(t.buffered) }

// Promoted returns the partition process this actor became (nil: standby).
func (t *takeover) Promoted() *partition.Partition { return t.promoted }

// Recovering reports whether a takeover is still resolving old-world work.
func (t *takeover) Recovering() bool { return t.promoted != nil && !t.resolved }

// committed replays one committed transaction and remembers its reply.
func (t *takeover) committed(ctx *sim.Context, r replay, client sim.ActorID, reply *msg.ClientReply) {
	t.apply(ctx, r)
	if reply != nil {
		t.lastReply[client] = reply
	}
}

// prepared buffers one prepared-but-undecided transaction. A repeat (the
// primary re-executed it after a speculative cascade) supersedes the earlier
// copy, keeping its first-seen position.
func (t *takeover) prepared(r replay) {
	if _, seen := t.buffered[r.txn]; !seen {
		t.bufOrder = append(t.bufOrder, r.txn)
	}
	t.buffered[r.txn] = r
}

// decided settles one buffered transaction — apply on commit, drop on abort —
// and reports whether it was buffered at all (a transaction that aborted
// before preparing, or resolved below the checkpoint, is not).
func (t *takeover) decided(ctx *sim.Context, id msg.TxnID, commit bool) bool {
	r, ok := t.buffered[id]
	if !ok {
		return false
	}
	t.unbuffer(id)
	if commit {
		t.apply(ctx, r)
	}
	return true
}

// unbuffer removes a transaction from the prepared buffer and its order.
func (t *takeover) unbuffer(id msg.TxnID) {
	delete(t.buffered, id)
	for i, b := range t.bufOrder {
		if b == id {
			t.bufOrder = append(t.bufOrder[:i], t.bufOrder[i+1:]...)
			break
		}
	}
}

// apply re-executes a transaction's fragments against Store. Replay is
// synchronous and deterministic (no locks, no undo — only transactions whose
// commit is decided get here), so one reusable view serves every work. A
// record that carries no work names no procedure either; there is nothing to
// run or count.
func (t *takeover) apply(ctx *sim.Context, r replay) {
	if len(r.works) == 0 {
		return
	}
	proc := t.Registry.Get(r.proc)
	for _, w := range r.works {
		view := &t.view
		view.Reset(t.Store, nil, nil)
		if _, err := proc.Run(view, w); err != nil {
			panic(fmt.Sprintf("replication: partition %d: transaction %d aborted on replay: %v", t.Partition, r.txn, err))
		}
		ctx.Spend(t.Costs.ReplicaApply(r.proc, view.Reads+view.Writes, view.Writes))
	}
	t.Applied++
}

// takeOver turns the standby into the partition's primary: it builds the
// partition process around Store — cfg carries what the role adds (surviving
// peers, or the reattached log) — and queries the still-undecided buffer.
func (t *takeover) takeOver(ctx *sim.Context, cfg partition.Config) {
	cfg.ID, cfg.Store, cfg.Registry, cfg.Costs, cfg.Net = t.Partition, t.Store, t.Registry, t.Costs, t.Net
	t.promoted = partition.New(cfg)
	t.promoted.Bind(t.self, t.EngineFactory)
	t.Net.Send(ctx, t.Coordinator, &msg.RecoveryQuery{
		Partition:  t.Partition,
		NewPrimary: t.self,
		Buffered:   append([]msg.TxnID(nil), t.bufOrder...),
	})
}

// receive dispatches messages after the takeover: recovery traffic and
// old-world decisions resolve against the buffer; everything else (engine
// timers, peer acks, disk completions) belongs to the inner partition process.
func (t *takeover) receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case *msg.RecoveryOutcome:
		for _, o := range v.Outcomes {
			t.resolveBuffered(ctx, o.Txn, o.Commit)
		}
		t.outcomeSeen = true
		t.maybeResume(ctx)
		return
	case *msg.Fragment:
		if !t.resolved {
			t.stash = append(t.stash, v)
			return
		}
		t.fragment(ctx, v)
		return
	case *msg.Decision:
		if _, old := t.buffered[v.Txn]; old {
			// Old-world transaction decided after the takeover: resolve the
			// buffered copy; the inner engine never saw it.
			t.resolveBuffered(ctx, v.Txn, v.Commit)
			t.maybeResume(ctx)
			return
		}
		if v.Recovery {
			return // old-world transaction with no state here
		}
	}
	t.promoted.Receive(ctx, m)
}

// fragment delivers a fragment to the inner partition, deduplicating client
// recovery resends: if the client's last applied committed transaction is the
// one being resent, the stored reply answers it instead of a second execution.
func (t *takeover) fragment(ctx *sim.Context, f *msg.Fragment) {
	if lr := t.lastReply[f.Client]; lr != nil && lr.Txn == f.Txn {
		t.Net.Send(ctx, f.Client, lr)
		return
	}
	t.promoted.Receive(ctx, f)
}

// maybeResume opens the new primary for business once the recovery outcome
// has arrived and no buffered transaction remains, keeping old-world commits
// strictly before new-world execution. Stashed fragments replay in arrival
// order.
func (t *takeover) maybeResume(ctx *sim.Context) {
	if t.resolved || !t.outcomeSeen || len(t.buffered) > 0 {
		return
	}
	t.resolved = true
	if t.Rec != nil {
		t.noteResumed(t.Rec, int(t.Partition), ctx.Now(), t.bufCommitted, t.bufDropped)
	}
	stash := t.stash
	t.stash = nil
	for _, f := range stash {
		t.fragment(ctx, f)
	}
}

// resolveBuffered settles one buffered transaction with an outcome recovered
// from the coordinator and passes that outcome on as the role requires.
func (t *takeover) resolveBuffered(ctx *sim.Context, id msg.TxnID, commit bool) {
	if !t.decided(ctx, id, commit) {
		return
	}
	if commit {
		t.bufCommitted++
	} else {
		t.bufDropped++
	}
	t.afterResolve(ctx, id, commit)
}
