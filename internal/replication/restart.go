package replication

import (
	"fmt"

	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/partition"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/txn"
)

// Restarter is the crash-restart actor for a durable, unreplicated partition:
// the "process supervisor re-launching the database" half of crash-restart
// faults. It idles until the fault controller's msg.Restart, then feeds the
// takeover from disk instead of from a replica link — the latest checkpoint
// becomes the store, the durable command-log tail replays onto it in commit
// order — and takes over exactly as a promoted backup does.
type Restarter struct {
	takeover
	Log *durable.Logger
}

// NewRestarter builds a restarter for one partition's command log.
func NewRestarter(log *durable.Logger, reg *txn.Registry, c *costs.Model, net *simnet.Net) *Restarter {
	r := &Restarter{takeover: newTakeover(nil, reg, c, net), Log: log}
	// The decision record the crash lost is re-created from the coordinator's
	// answer, keeping the log self-contained.
	r.afterResolve = log.AppendDecision
	r.noteResumed = (*metrics.Collector).NoteRestartResumed
	return r
}

// Receive idles until the restart order, then behaves like a promoted backup.
func (r *Restarter) Receive(ctx *sim.Context, m sim.Message) {
	if r.promoted != nil {
		r.receive(ctx, m)
		return
	}
	if _, ok := m.(msg.Restart); !ok {
		panic(fmt.Sprintf("restarter: unexpected message %T before restart", m))
	}
	r.restart(ctx)
}

// restart performs crash recovery: pay the disk read for the checkpoint
// image, adopt its snapshot, replay the durable log tail in commit order
// (committed records apply; prepared records buffer; decision records settle
// them; migration records mutate the store directly), pay the tail's read,
// reattach the log, and take over with the log as the new process's own.
func (r *Restarter) restart(ctx *sim.Context) {
	began := ctx.Now()
	ck := r.Log.Latest()
	ctx.Spend(r.Log.ReadCost(ck.Bytes))
	r.Store = ck.Store
	var logBytes uint64
	replayTxns := 0
	tail := r.Log.Tail()
	for i := range tail {
		rec := &tail[i]
		logBytes += uint64(rec.Size)
		rp := replay{txn: rec.Txn, proc: rec.Proc, works: rec.Works}
		switch rec.Kind {
		case durable.RecordCommitted:
			r.committed(ctx, rp, rec.Client, rec.Reply)
			replayTxns++
		case durable.RecordPrepared:
			r.prepared(rp)
		case durable.RecordDecision:
			if r.decided(ctx, rec.Txn, rec.Commit) && rec.Commit {
				replayTxns++
			}
		case durable.RecordMigration:
			// Elastic repartitioning step, appended at a drained quiescent
			// point: no transaction to re-execute. Replaying it restores the
			// post-migration key placement, so re-executed later transactions
			// find (or miss) exactly the rows the original run did.
			if rec.MigOut {
				r.Store.TakeRange(rec.MigLo, rec.MigHi)
			} else {
				r.Store.PutRows(rec.MigRows)
			}
		}
	}
	ctx.Spend(r.Log.ReadCost(logBytes))
	r.Log.Reattach(r.self)
	if r.Rec != nil {
		r.Rec.NoteRestartBegun(int(r.Partition), began, ck.Bytes, logBytes, replayTxns)
	}
	r.takeOver(ctx, partition.Config{Logger: r.Log, Rec: r.Rec})
}
