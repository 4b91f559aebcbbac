// Package replication implements the backup processes of §3.2/§4.3 and the
// failover that makes the k-safety machinery worth having. H-Store uses
// k-replication instead of disk for durability: a transaction commits once k
// replicas have received it. Backups re-execute forwarded transactions
// sequentially, in the order the primary committed them, without locks or
// undo buffers — any data from remote partitions is baked into the forwarded
// work, so backups never participate in distributed transactions.
//
// When fault injection is enabled, a backup also runs a timeout-based
// failure detector over its primary's heartbeats and promotes itself on
// detecting a crash; a durable, unreplicated partition is instead brought
// back from its checkpoint and command log by a Restarter. Both become the
// primary through the one takeover state machine (takeover.go). See
// docs/ARCHITECTURE.md "Failures and recovery".
package replication

import (
	"fmt"

	"specdb/internal/costs"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/partition"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// pulseTick and checkTick drive the backup's heartbeat loop (backup-crash
// detection by the primary) and its failure detector over the primary.
type (
	pulseTick struct{}
	checkTick struct{}
)

// Backup is one backup replica of a partition: a takeover fed by the FIFO
// replica link, plus the heartbeat machinery that decides when to promote.
type Backup struct {
	takeover
	Primary sim.ActorID

	// Failover wiring (set by the facade when fault injection is enabled).
	// Replica is this backup's 1-based rank, which staggers the detection
	// timeout so exactly one surviving backup promotes. Peers are the
	// partition's other backups.
	Replica int
	Peers   []sim.ActorID
	// Heartbeat and Timeout parameterize the failure detector.
	Heartbeat sim.Time
	Timeout   sim.Time

	pulsing    bool
	monitoring bool
	lastHeard  sim.Time
}

// New builds a backup.
func New(store *storage.Store, reg *txn.Registry, c *costs.Model, net *simnet.Net) *Backup {
	b := &Backup{takeover: newTakeover(store, reg, c, net)}
	b.afterResolve = b.relayDecision
	b.noteResumed = (*metrics.Collector).NotePromoted
	return b
}

// Receive handles primary traffic, failure detection, and — after promotion
// — everything a partition primary handles.
func (b *Backup) Receive(ctx *sim.Context, m sim.Message) {
	if b.promoted != nil {
		switch m.(type) {
		case *msg.ReplicaForward, *msg.ReplicaDecision, *msg.Heartbeat,
			msg.StartMonitor, msg.StartPulse, msg.StopPulse, checkTick, pulseTick, *msg.NewPrimary,
			*msg.ReplicaMigrateOut, *msg.ReplicaMigrateIn:
			// Stale pre-crash traffic or detector machinery; promotion is
			// final and the old primary is dead. (Migration forwards reach a
			// promoted backup as MigrateOut/MigrateIn — replica-directed
			// copies could only come from the dead primary.)
			return
		}
		b.receive(ctx, m)
		return
	}
	switch v := m.(type) {
	case *msg.ReplicaForward:
		r := replay{txn: v.Txn, proc: v.Proc, works: v.Works}
		if v.Committed {
			b.committed(ctx, r, v.Client, v.Reply)
		} else {
			b.prepared(r)
		}
		b.Net.Send(ctx, b.Primary, &msg.ReplicaAck{Txn: v.Txn, From: ctx.Self(), Seq: v.Seq})
	case *msg.ReplicaDecision:
		b.decided(ctx, v.Txn, v.Commit)
	case *msg.Heartbeat:
		b.lastHeard = ctx.Now()
	case msg.StartMonitor:
		if !b.monitoring {
			b.monitoring = true
			b.lastHeard = ctx.Now()
			ctx.After(b.staggeredTimeout(), checkTick{})
		}
	case checkTick:
		b.check(ctx)
	case msg.StartPulse:
		if !b.pulsing {
			b.pulsing = true
			b.pulse(ctx)
		}
	case pulseTick:
		b.pulse(ctx)
	case msg.StopPulse:
		b.pulsing = false
	case *msg.NewPrimary:
		// A lower-ranked peer promoted first: re-target acknowledgments
		// and stand down this backup's own failure detector.
		b.Primary = v.Actor
		b.monitoring = false
	case *msg.ReplicaMigrateOut:
		// The primary surrendered a key range at a drained quiescent point.
		// The FIFO link guarantees every decision for a transaction that
		// committed before the migration has already been delivered, so no
		// buffered transaction can touch the departing rows.
		b.Store.TakeRange(v.Lo, v.Hi)
	case *msg.ReplicaMigrateIn:
		b.Store.PutRows(v.Rows)
	default:
		panic(fmt.Sprintf("backup: unexpected message %T", m))
	}
}

// staggeredTimeout widens the detection timeout by replica rank so that the
// lowest-ranked surviving backup always declares the crash first and
// higher-ranked peers learn of its promotion before their own timers fire.
func (b *Backup) staggeredTimeout() sim.Time {
	return b.Timeout * sim.Time(b.Replica)
}

// pulse heartbeats the primary (backup-crash detection) and re-arms.
func (b *Backup) pulse(ctx *sim.Context) {
	if !b.pulsing {
		return
	}
	b.Net.Send(ctx, b.Primary, &msg.Heartbeat{Partition: b.Partition, From: ctx.Self()})
	ctx.After(b.Heartbeat, pulseTick{})
}

// check is the failure detector: if the primary has been silent past the
// (rank-staggered) timeout, promote; otherwise re-arm for the next deadline.
func (b *Backup) check(ctx *sim.Context) {
	if !b.monitoring {
		return
	}
	deadline := b.lastHeard + b.staggeredTimeout()
	if ctx.Now() < deadline {
		ctx.After(deadline-ctx.Now(), checkTick{})
		return
	}
	b.promote(ctx)
}

// promote turns this backup into the partition's primary. The store already
// holds every committed transaction; surviving peer backups become the new
// primary's backups, and the takeover resolves the prepared buffer.
func (b *Backup) promote(ctx *sim.Context) {
	b.monitoring = false
	if b.Rec != nil {
		b.Rec.NoteDetected(int(b.Partition), metrics.RolePrimary, 0, ctx.Now())
	}
	for _, p := range b.Peers {
		b.Net.Send(ctx, p, &msg.NewPrimary{Partition: b.Partition, Actor: b.self})
	}
	b.takeOver(ctx, partition.Config{Backups: append([]sim.ActorID(nil), b.Peers...)})
}

// relayDecision passes a recovered outcome to the peer backups, whose buffers
// mirror this one.
func (b *Backup) relayDecision(ctx *sim.Context, id msg.TxnID, commit bool) {
	for _, p := range b.Peers {
		b.Net.Send(ctx, p, &msg.ReplicaDecision{Txn: id, Commit: commit})
	}
}
