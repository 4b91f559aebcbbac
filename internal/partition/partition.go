// Package partition implements the partition primary process (§3.1): a
// single-threaded actor owning one data partition, running one of the
// concurrency control engines from internal/core, and speaking to clients,
// the central coordinator and its backup replicas.
//
// The partition is the concrete implementation of core.Env: it executes
// fragment bodies against its store, owns undo buffers, prices CPU charges
// through the cost model, and gates outgoing votes and replies on backup
// acknowledgments when replication is enabled (§3.2/§3.3: sending the
// transaction to the backups "is equivalent to forcing the participant's 2PC
// vote to disk").
package partition

import (
	"fmt"
	"sort"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/locks"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/oracle"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
	"specdb/internal/undo"
)

// timerMsg wraps engine timer payloads.
type timerMsg struct{ payload any }

// pulseTick and probeTick drive the heartbeat loop and the backup failure
// detector (fault-injection runs only).
type (
	pulseTick struct{}
	probeTick struct{}
)

// Config assembles a partition.
type Config struct {
	ID       msg.PartitionID
	Store    *storage.Store
	Registry *txn.Registry
	Costs    *costs.Model
	Net      *simnet.Net
	// Backups are the replica actors for this partition (may be empty).
	Backups []sim.ActorID
	// Logger is the partition's command log (nil when durability is off).
	// Appends happen at exactly the replica-forward points and gate the
	// same sends: the log is a disk-backed replica (see internal/durable).
	Logger *durable.Logger

	// Heartbeat and DetectTimeout parameterize the failure detector; they
	// are only consulted after a StartPulse/StartMonitor message, which the
	// facade sends when fault injection is enabled.
	Heartbeat     sim.Time
	DetectTimeout sim.Time
	// Rec records failover events (may be nil outside fault runs).
	Rec *metrics.Collector

	// History, when non-nil, records every committed transaction's value
	// trace and this partition's commit order for the serializability
	// oracle (internal/oracle). Test-only: production runs leave it nil,
	// which costs one pointer check per execution.
	History *oracle.PartitionHistory
}

// Partition is the primary process for one partition.
type Partition struct {
	cfg    Config
	engine core.Engine
	// retired and retiredLocks accumulate the stats of engines replaced by
	// SwapEngine, so whole-run counters survive adaptive scheme switches.
	retired      core.EngineStats
	retiredLocks locks.Stats
	self         sim.ActorID
	ctx          *sim.Context // valid only during Receive

	undos map[msg.TxnID]*undo.Buffer
	// undoFree recycles undo buffers: Forget returns a transaction's buffer
	// (cleared, capacity kept) and Execute hands it to the next transaction,
	// so steady-state undo recording allocates nothing. Safe because no
	// fragment body is ever on the stack when an engine calls Forget.
	undoFree []*undo.Buffer
	// view is the one fragment execution view: every body runs to its end —
	// return, abort, or a locker's unwinding panic — before the next starts,
	// under all five engines.
	view storage.TxnView
	// works accumulates executed fragment inputs per transaction for
	// replica forwarding.
	works map[msg.TxnID]*workLog
	// pending holds votes/replies gated on backup acks and log durability.
	pending map[msg.TxnID]*pendingSend
	fwdSeq  uint32
	// nextCkptAt and ckptPending drive the lazy fuzzy-checkpoint trigger:
	// no timer events — checkpoint boundaries are checked on normal message
	// flow, and an overdue checkpoint fires at the next quiescent point.
	nextCkptAt  sim.Time
	ckptPending bool
	// genSeen is the latest coordinator abort-generation observed.
	genSeen uint32

	// Failure detection (fault-injection runs): the primary pulses its
	// backups so they can detect a primary crash, and monitors their
	// heartbeats so it can detach a crashed backup and release the votes
	// and replies gated on its acknowledgments.
	pulsing    bool
	monitoring bool
	lastHeard  map[sim.ActorID]sim.Time
	rank       map[sim.ActorID]int // 1-based backup index, for metrics

	// Stats
	FragmentsIn  uint64
	DecisionsIn  uint64
	ResultsOut   uint64
	RepliesOut   uint64
	ForwardsOut  uint64
	ExecNanosCPU sim.Time // total CPU charged for execution

	// MigrationsIn counts completed inbound key-range migrations; the facade
	// polls it to detect that a shipped range has been installed.
	// RowsMigratedIn/RowsMigratedOut count the rows that moved.
	MigrationsIn    uint64
	RowsMigratedIn  uint64
	RowsMigratedOut uint64
}

type workLog struct {
	proc  string
	works []any
	rows  int
	wr    int
}

type pendingSend struct {
	seq uint32
	// awaiting holds the backups whose acknowledgment is still missing;
	// the gated send fires when it empties — by acks arriving, or by a
	// crashed backup being detached — AND the log record (if any) is
	// durable.
	awaiting map[sim.ActorID]bool
	// logWait is set while the transaction's command-log record awaits its
	// group-commit batch; logRec keys the release (a speculative
	// re-execution appends a fresh record, superseding the old gate).
	logWait bool
	logRec  int
	send    func()
}

// ready reports whether every gate has cleared.
func (ps *pendingSend) ready() bool { return len(ps.awaiting) == 0 && !ps.logWait }

// New builds a partition; call Bind with the actor ID and an engine factory
// after registering it with the scheduler.
func New(cfg Config) *Partition {
	return &Partition{
		cfg:     cfg,
		undos:   make(map[msg.TxnID]*undo.Buffer),
		works:   make(map[msg.TxnID]*workLog),
		pending: make(map[msg.TxnID]*pendingSend),
	}
}

// Bind attaches the actor identity and constructs the engine via factory
// (which needs the partition as its Env).
func (p *Partition) Bind(self sim.ActorID, factory func(env core.Env) core.Engine) {
	p.self = self
	p.engine = factory(p)
}

// SetBackups installs the replica actor IDs; backups register after the
// primary because they need its ID for acknowledgments.
func (p *Partition) SetBackups(ids []sim.ActorID) {
	p.cfg.Backups = ids
	p.rank = make(map[sim.ActorID]int, len(ids))
	for i, id := range ids {
		p.rank[id] = i + 1
	}
}

// Engine exposes the concurrency control engine (for stats).
func (p *Partition) Engine() core.Engine { return p.engine }

// EngineTotals returns scheme-level counters accumulated across every engine
// this partition has run, including engines retired by SwapEngine.
func (p *Partition) EngineTotals() core.EngineStats {
	return p.retired.Add(p.engine.Stats())
}

// LockTotals returns lock-manager counters accumulated across every locking
// engine this partition has run (retired ones included), plus whether any
// locking engine has run at all.
func (p *Partition) LockTotals() (locks.Stats, bool) {
	tot := p.retiredLocks
	ran := tot != (locks.Stats{})
	if le, ok := p.engine.(*core.LockEngine); ok {
		tot = tot.Add(le.LockStats())
		ran = true
	}
	return tot, ran
}

// Quiescent reports whether the partition holds no transaction state: the
// engine is quiescent and no undo buffers, replica forwards or gated sends
// are outstanding. Only at such a point may the engine be swapped.
func (p *Partition) Quiescent() bool {
	return p.engine.Quiescent() && len(p.undos) == 0 && len(p.works) == 0 && len(p.pending) == 0
}

// SwapEngine retires the current engine and constructs a replacement via
// factory, handing it the partition's store, undo ledger and replication
// gating (all owned by the partition, which is the engine's Env). The
// retired engine's counters are folded into EngineTotals. SwapEngine fails
// unless the partition is quiescent — callers must drain in-flight
// transactions first (see the facade's SetScheme).
func (p *Partition) SwapEngine(factory func(env core.Env) core.Engine) error {
	if !p.Quiescent() {
		return fmt.Errorf("partition %d: engine swap while not quiescent (undos=%d works=%d pending=%d engine=%v)",
			p.cfg.ID, len(p.undos), len(p.works), len(p.pending), p.engine.Quiescent())
	}
	p.retired = p.retired.Add(p.engine.Stats())
	if le, ok := p.engine.(*core.LockEngine); ok {
		p.retiredLocks = p.retiredLocks.Add(le.LockStats())
	}
	p.engine = factory(p)
	return nil
}

// Store exposes the partition store (for test verification).
func (p *Partition) Store() *storage.Store { return p.cfg.Store }

// Receive dispatches messages to the engine.
func (p *Partition) Receive(ctx *sim.Context, m sim.Message) {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	switch v := m.(type) {
	case *msg.Fragment:
		p.FragmentsIn++
		if v.Gen > p.genSeen {
			p.genSeen = v.Gen
		}
		p.engine.Fragment(v)
	case *msg.Decision:
		p.DecisionsIn++
		if v.Gen > p.genSeen {
			p.genSeen = v.Gen
		}
		// Record the outcome BEFORE the engine reacts, for the same reason
		// backups get it first: committing the decision may release
		// speculated single-partition transactions whose forwards (and log
		// records) must follow this transaction, preserving the primary's
		// commit order on the (FIFO) backup link and in the log.
		if p.cfg.Logger != nil {
			p.cfg.Logger.AppendDecision(ctx, v.Txn, v.Commit)
		}
		if len(p.cfg.Backups) > 0 {
			for _, b := range p.cfg.Backups {
				p.cfg.Net.Send(ctx, b, &msg.ReplicaDecision{Txn: v.Txn, Commit: v.Commit})
			}
		}
		if p.cfg.History != nil {
			// The decision is this partition's commit point for the
			// multi-partition transaction: seal (or discard) its trace
			// before the engine releases anything serialized after it.
			if v.Commit {
				p.cfg.History.Commit(v.Txn)
			} else {
				p.cfg.History.Drop(v.Txn)
			}
		}
		p.engine.Decision(v)
	case *msg.ReplicaAck:
		p.ackArrived(v)
	case *durable.WriteDone:
		if v.Checkpoint {
			p.cfg.Logger.CheckpointDurable(v.Seq)
		} else {
			for _, g := range p.cfg.Logger.Durable(v.Seq) {
				p.logDurable(g)
			}
		}
	case durable.FlushTick:
		p.cfg.Logger.Flush(ctx, v.Batch)
	case timerMsg:
		p.engine.Timer(v.payload)
	case msg.StartPulse:
		if !p.pulsing {
			p.pulsing = true
			p.pulse(ctx)
		}
	case pulseTick:
		p.pulse(ctx)
	case msg.StartMonitor:
		if !p.monitoring {
			p.monitoring = true
			p.lastHeard = make(map[sim.ActorID]sim.Time, len(p.cfg.Backups))
			for _, b := range p.cfg.Backups {
				p.lastHeard[b] = ctx.Now()
			}
			ctx.After(p.cfg.DetectTimeout, probeTick{})
		}
	case probeTick:
		p.probe(ctx)
	case *msg.Heartbeat:
		if p.monitoring {
			p.lastHeard[v.From] = ctx.Now()
		}
	case *msg.MigrateOut:
		p.migrateOut(ctx, v)
	case *msg.MigrateIn:
		p.migrateIn(ctx, v)
	default:
		panic(fmt.Sprintf("partition %d: unexpected message %T", p.cfg.ID, m))
	}
	if p.cfg.Logger != nil {
		p.maybeCheckpoint(ctx)
	}
}

// maybeCheckpoint drives the fuzzy-checkpoint schedule without timer events
// (a self-rearming timer would keep the event queue from draining): every
// delivery checks whether a checkpoint boundary has passed, and an overdue
// checkpoint is captured at the first partition-quiescent point — where every
// appended log record's transaction is resolved and applied, so snapshot +
// log tail is exactly the committed state.
func (p *Partition) maybeCheckpoint(ctx *sim.Context) {
	every := p.cfg.Logger.CheckpointEvery()
	if every <= 0 {
		return
	}
	if p.nextCkptAt == 0 {
		p.nextCkptAt = every
	}
	if ctx.Now() >= p.nextCkptAt {
		p.ckptPending = true
		for p.nextCkptAt <= ctx.Now() {
			p.nextCkptAt += every
		}
	}
	if p.ckptPending && p.cfg.Logger.CanCheckpoint() && p.ckptQuiescent() {
		p.ckptPending = false
		p.cfg.Logger.StartCheckpoint(ctx, p.cfg.Store)
	}
}

// ckptQuiescent reports whether a fuzzy checkpoint may be captured now: the
// engine holds no live or speculative transaction state (so the store is
// exactly the committed state) and every appended log record sits in a batch
// already queued on the FIFO disk — a checkpoint write issued now completes
// after all of them, so an *installed* checkpoint can never cover a record
// whose gated send was still held at a later crash. Unlike full Quiescent(),
// sends gated on batch durability may still be pending: their transactions
// are committed and applied, and the disk's FIFO order releases them before
// the snapshot installs. Without this relaxation checkpoints would starve
// under sustained load, where some reply is almost always gated on group
// commit.
func (p *Partition) ckptQuiescent() bool {
	return p.engine.Quiescent() && len(p.undos) == 0 && len(p.works) == 0 &&
		p.cfg.Logger.OpenBatchBytes() == 0
}

// logDurable clears the log gate of one newly durable record, releasing the
// held send if its backup acknowledgments have also all arrived. A gate for a
// superseded record (speculative re-execution re-appended) is stale and
// ignored; the transaction's release is keyed on its latest record.
func (p *Partition) logDurable(g durable.Gate) {
	ps := p.pending[g.Txn]
	if ps == nil || !ps.logWait || ps.logRec != g.Rec {
		return
	}
	ps.logWait = false
	p.release(g.Txn, ps)
}

// release fires a gated send once its last gate has cleared.
func (p *Partition) release(id msg.TxnID, ps *pendingSend) {
	if ps.ready() {
		delete(p.pending, id)
		ps.send()
	}
}

// pulse sends one heartbeat to every attached backup and re-arms the loop.
// Heartbeats charge no CPU: only their absence is information.
func (p *Partition) pulse(ctx *sim.Context) {
	if !p.pulsing {
		return
	}
	for _, b := range p.cfg.Backups {
		p.cfg.Net.Send(ctx, b, &msg.Heartbeat{Partition: p.cfg.ID, From: ctx.Self()})
	}
	ctx.After(p.cfg.Heartbeat, pulseTick{})
}

// probe checks every backup's heartbeat age, detaching any that has been
// silent past the detection timeout, and re-arms itself for the earliest
// next deadline. The first detection ends monitoring (fault schedules allow
// one fault per partition, and the surviving backups are told to stop
// pulsing), letting the event queue drain.
func (p *Partition) probe(ctx *sim.Context) {
	if !p.monitoring {
		return
	}
	next := sim.Time(-1)
	for _, b := range append([]sim.ActorID(nil), p.cfg.Backups...) {
		deadline := p.lastHeard[b] + p.cfg.DetectTimeout
		if ctx.Now() >= deadline {
			p.dropBackup(ctx, b)
			continue
		}
		if next < 0 || deadline < next {
			next = deadline
		}
	}
	if !p.monitoring || next < 0 {
		p.monitoring = false
		return
	}
	ctx.After(next-ctx.Now(), probeTick{})
}

// dropBackup detaches a crashed backup: it stops receiving forwards, every
// send gated on its acknowledgment is released, and the surviving backups
// are told to stop their own heartbeat pulses (the fault schedule allows
// one fault per partition, so detection ends here too).
func (p *Partition) dropBackup(ctx *sim.Context, dead sim.ActorID) {
	p.monitoring = false
	if p.cfg.Rec != nil {
		p.cfg.Rec.NoteDetected(int(p.cfg.ID), metrics.RoleBackup, p.rank[dead], ctx.Now())
	}
	kept := p.cfg.Backups[:0]
	for _, b := range p.cfg.Backups {
		if b != dead {
			kept = append(kept, b)
		}
	}
	p.cfg.Backups = kept
	delete(p.lastHeard, dead)
	for _, b := range p.cfg.Backups {
		p.cfg.Net.Send(ctx, b, msg.StopPulse{})
	}
	// Release gated sends in deterministic (TxnID) order.
	ids := make([]msg.TxnID, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ps := p.pending[id]
		delete(ps.awaiting, dead)
		p.release(id, ps)
	}
}

// migrateOut surrenders the key range [Lo, Hi) to the destination partition.
// The facade sends MigrateOut only at a drained quiescent point — the engine
// holds no transaction state — so the rows can be collected and deleted
// directly from the store, exactly like an engine swap mutates engine state
// there. The deletion is forwarded to this partition's backups on the same
// FIFO link as replica traffic (so it lands after every earlier decision),
// logged as a migration record when durable, and the rows ship to Dest.
func (p *Partition) migrateOut(ctx *sim.Context, m *msg.MigrateOut) {
	if !p.Quiescent() {
		panic(fmt.Sprintf("partition %d: migration while not quiescent", p.cfg.ID))
	}
	rows := p.cfg.Store.TakeRange(m.Lo, m.Hi)
	p.spendCtx(ctx, m.Cost)
	if p.cfg.Logger != nil {
		p.cfg.Logger.AppendMigrationOut(ctx, m.Lo, m.Hi)
	}
	for _, b := range p.cfg.Backups {
		p.cfg.Net.Send(ctx, b, &msg.ReplicaMigrateOut{Lo: m.Lo, Hi: m.Hi})
	}
	if p.cfg.History != nil {
		p.cfg.History.RecordMigrationOut(rows)
	}
	p.RowsMigratedOut += uint64(len(rows))
	p.cfg.Net.Send(ctx, m.Dest, &msg.MigrateIn{Rows: rows, Cost: m.Cost})
}

// migrateIn adopts a migrated key range: rows are installed in the store,
// forwarded to this partition's backups, and logged when durable. The facade
// observes completion through MigrationsIn.
func (p *Partition) migrateIn(ctx *sim.Context, m *msg.MigrateIn) {
	if !p.Quiescent() {
		panic(fmt.Sprintf("partition %d: migration while not quiescent", p.cfg.ID))
	}
	p.cfg.Store.PutRows(m.Rows)
	p.spendCtx(ctx, m.Cost)
	if p.cfg.Logger != nil {
		p.cfg.Logger.AppendMigrationIn(ctx, m.Rows)
	}
	for _, b := range p.cfg.Backups {
		p.cfg.Net.Send(ctx, b, &msg.ReplicaMigrateIn{Rows: m.Rows})
	}
	if p.cfg.History != nil {
		p.cfg.History.RecordMigrationIn(m.Rows)
	}
	p.RowsMigratedIn += uint64(len(m.Rows))
	p.MigrationsIn++
}

// spendCtx charges CPU against an explicit context (migration handlers run
// outside the Receive-scoped p.ctx convention used by engine callbacks).
func (p *Partition) spendCtx(ctx *sim.Context, d sim.Time) {
	if d > 0 {
		ctx.Spend(d)
	}
}

// --- core.Env implementation ---

// Execute runs a fragment body, charging virtual CPU per the cost model. A
// body the locking engine's locker unwinds with core.Suspend is taken back to
// the savepoint at its start — undo buffer and oracle record both — and costs
// nothing: the run that completes pays for the fragment.
func (p *Partition) Execute(f *msg.Fragment, withUndo bool, locker storage.Locker) (outcome core.ExecOutcome) {
	if f.InjectAbort {
		p.spend(p.cfg.Costs.AbortedFragment)
		p.Rollback(f.Txn)
		return core.ExecOutcome{Aborted: true}
	}
	var buf *undo.Buffer
	if withUndo {
		buf = p.undos[f.Txn]
		if buf == nil {
			if n := len(p.undoFree); n > 0 {
				buf = p.undoFree[n-1]
				p.undoFree = p.undoFree[:n-1]
			} else {
				buf = undo.New()
			}
			p.undos[f.Txn] = buf
		}
	}
	view := &p.view
	view.Reset(p.cfg.Store, buf, locker)
	if locker != nil && buf != nil {
		// A locker may unwind the body to wait (core.Suspend) only where an
		// undo buffer can take the fragment's writes back.
		undoMark, histMark := buf.Len(), 0
		if p.cfg.History != nil {
			histMark = p.cfg.History.Mark(f.Txn)
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(core.Suspend); !ok {
				panic(r)
			}
			buf.RollbackTo(undoMark)
			if p.cfg.History != nil {
				p.cfg.History.Truncate(f.Txn, histMark)
			}
			outcome = core.ExecOutcome{Suspended: true}
		}()
	}
	if p.cfg.History != nil {
		// Installed after Reset (which wipes Obs). MVCC snapshot readers
		// serialize at their snapshot point, not their commit point: pin
		// their position in the serial order now.
		view.Obs = p.cfg.History.Observer(f.Txn)
		if f.ReadOnly && p.engine.Scheme() == core.SchemeMVCC {
			p.cfg.History.Pin(f.Txn)
		}
	}
	proc := p.cfg.Registry.Get(f.Proc)
	out, err := proc.Run(view, f.Work)
	cost := p.cfg.Costs.Fragment(f.Proc, view.Reads+view.Writes, view.Writes, view.LockAcquires, withUndo)
	p.spend(cost)
	p.ExecNanosCPU += cost
	if err != nil {
		if buf != nil {
			buf.Rollback()
		}
		if p.cfg.History != nil {
			p.cfg.History.Drop(f.Txn)
		}
		return core.ExecOutcome{Output: out, Aborted: true}
	}
	// Log the work for replica forwarding and/or command logging.
	if len(p.cfg.Backups) > 0 || p.cfg.Logger != nil {
		wl := p.works[f.Txn]
		if wl == nil {
			wl = &workLog{proc: f.Proc}
			p.works[f.Txn] = wl
		}
		wl.works = append(wl.works, f.Work)
		wl.rows += view.Reads + view.Writes
		wl.wr += view.Writes
	}
	return core.ExecOutcome{Output: out}
}

// Rollback undoes a transaction's local effects.
func (p *Partition) Rollback(id msg.TxnID) {
	if buf := p.undos[id]; buf != nil {
		buf.Rollback()
	}
	delete(p.works, id)
	if p.cfg.History != nil {
		p.cfg.History.Drop(id)
	}
}

// Forget drops undo and forwarding state, recycling the undo buffer.
func (p *Partition) Forget(id msg.TxnID) {
	if buf := p.undos[id]; buf != nil {
		delete(p.undos, id)
		buf.Discard()
		p.undoFree = append(p.undoFree, buf)
	}
}

// SendResult returns a fragment result to its coordinator, forwarding to
// backups first when this is a clean vote (the prepare is piggybacked on the
// last fragment, §3.3).
func (p *Partition) SendResult(f *msg.Fragment, r *msg.FragmentResult) {
	r.Gen = p.genSeen
	p.ResultsOut++
	if (len(p.cfg.Backups) > 0 || p.cfg.Logger != nil) && f.Last && f.MultiPartition && !r.Aborted {
		p.gateSend(f.Txn, false, 0, nil, func() {
			p.cfg.Net.Send(p.ctx, f.Coord, r)
		})
		return
	}
	if f.Last && f.MultiPartition && !r.Aborted {
		// No backups (left) to forward to — work was logged while a now-
		// detached backup was attached; drop it so nothing leaks.
		delete(p.works, f.Txn)
	}
	p.cfg.Net.Send(p.ctx, f.Coord, r)
}

// ReplyClient completes a single-partition transaction, forwarding committed
// work to backups first ("the result of the transaction is sent to the
// client [when] all acknowledgments from the backups are received", §3.2).
func (p *Partition) ReplyClient(f *msg.Fragment, reply *msg.ClientReply) {
	p.RepliesOut++
	if p.cfg.History != nil && reply.Committed {
		// The committed reply is a single-partition transaction's commit
		// point (speculative engines call this only on release, in commit
		// order).
		p.cfg.History.Commit(f.Txn)
	}
	if (len(p.cfg.Backups) > 0 || p.cfg.Logger != nil) && reply.Committed {
		p.gateSend(f.Txn, true, f.Client, reply, func() {
			p.cfg.Net.Send(p.ctx, f.Client, reply)
		})
		return
	}
	// Not forwarding (no backups left, or an abort): drop any logged work.
	delete(p.works, f.Txn)
	p.cfg.Net.Send(p.ctx, f.Client, reply)
}

// After arms an engine timer.
func (p *Partition) After(d sim.Time, payload any) {
	p.ctx.After(d, timerMsg{payload})
}

// ChargeDecision prices 2PC outcome processing.
func (p *Partition) ChargeDecision() {
	p.spend(p.cfg.Costs.Decision)
}

func (p *Partition) spend(d sim.Time) { p.ctx.Spend(d) }

// gateSend records the transaction at its durability points — appending its
// command-log record and shipping its executed work to every backup — and
// holds send until every gate clears: the record's group-commit batch is on
// disk, and all backup acks have arrived. A re-forward (speculative
// re-execution after a cascade) supersedes the previous one, in the log too:
// the fresh record's gate replaces the old record's. Committed
// single-partition records and forwards carry the client identity and reply
// so a restarted or promoted process can deduplicate recovery resends.
func (p *Partition) gateSend(id msg.TxnID, committed bool, client sim.ActorID, reply *msg.ClientReply, send func()) {
	wl := p.works[id]
	if wl == nil {
		// Read-only transaction with no logged work still forwards (the
		// backups advance their sequence); synthesize an empty log.
		wl = &workLog{}
	}
	delete(p.works, id)
	ps := &pendingSend{send: send, logRec: -1}
	if lg := p.cfg.Logger; lg != nil {
		if committed {
			ps.logRec = lg.AppendCommitted(p.ctx, id, wl.proc, wl.works, client, reply)
		} else {
			ps.logRec = lg.AppendPrepared(p.ctx, id, wl.proc, wl.works)
		}
		ps.logWait = true
	}
	if len(p.cfg.Backups) > 0 {
		p.fwdSeq++
		ps.seq = p.fwdSeq
		fw := &msg.ReplicaForward{Txn: id, Proc: wl.proc, Works: wl.works, Committed: committed, Seq: p.fwdSeq, Client: client, Reply: reply}
		ps.awaiting = make(map[sim.ActorID]bool, len(p.cfg.Backups))
		for _, b := range p.cfg.Backups {
			p.cfg.Net.Send(p.ctx, b, fw)
			ps.awaiting[b] = true
		}
		p.ForwardsOut++
	}
	p.pending[id] = ps
}

func (p *Partition) ackArrived(a *msg.ReplicaAck) {
	ps := p.pending[a.Txn]
	if ps == nil || ps.seq != a.Seq {
		return // stale ack from a superseded forward
	}
	delete(ps.awaiting, a.From)
	p.release(a.Txn, ps)
}
