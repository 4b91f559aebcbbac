// Package mvcc implements multiversion timestamp ordering behind the
// core.Engine interface. Each transaction is stamped with an arrival
// timestamp; conceptually every row carries a chain of versions, each valid
// over a [begin, end) timestamp interval. Because the partition is
// single-threaded and at most one uncommitted writer per row is admitted,
// the chain never needs more than two links: the committed head lives in
// the store itself, and the engine keeps the uncommitted successor's
// before-image (the committed version it supersedes) on the side.
//
// The payoff is for declared read-only transactions: they execute against a
// consistent snapshot — the committed state as of their arrival timestamp —
// and therefore never block, never abort, and never constrain writers. The
// snapshot is materialized lazily: at execution time the engine overlays
// the before-images of all uncommitted writes (hiding dirty data), and when
// a writer commits, the versions it retires are captured into the snapshots
// of the read-only transactions still live at that point.
//
// Read-write transactions order themselves by timestamp: an access that
// conflicts with a live transaction's write (or a write that conflicts with
// a live read) aborts the accessor — the transaction serialized later by
// arrival order loses — and the client retries it with a fresh transaction
// ID through the same resend path the locking scheme's deadlock kills use.
package mvcc

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/msg"
	"specdb/internal/storage"
)

// vkey identifies a row.
type vkey struct {
	table, key string
}

// version is one row version's payload: the value and whether the row
// existed at all (a before-image of an insert has existed=false).
type version struct {
	val     any
	existed bool
}

// writeRec tracks one uncommitted write: who holds it and the committed
// version it supersedes (the head of the row's version chain, valid until
// the writer's commit timestamp closes it).
type writeRec struct {
	writer msg.TxnID
	prev   version
}

// mtxn is one live transaction's versioning state.
type mtxn struct {
	id   msg.TxnID
	ts   uint64
	frag *msg.Fragment
	ro   bool
	// readSet is tracked for multi-partition read-write transactions only:
	// their reads span events, so later-arriving writers must be ordered
	// (aborted) against them. Single-partition reads finish within one
	// event and need no tracking.
	readSet map[vkey]struct{}
	// scans extends the read set to scanned ranges (multi-partition
	// read-write transactions only, same reasoning as readSet): a writer
	// into a live reader's scanned range loses to the earlier arrival even
	// when the written key was absent at scan time — phantom protection.
	scans []msg.KeyRange
	// writes lists the rows this transaction has uncommitted writes for.
	writes []vkey
	// shadow is the read-only snapshot: versions retired by writers that
	// committed after this transaction arrived, keyed by row. First
	// capture wins — the oldest retired version is the snapshot version.
	shadow map[vkey]version
}

// Storer is the slice of the host environment the MVCC engine needs beyond
// core.Env: direct store access for materializing snapshots.
// partition.Partition satisfies it.
type Storer interface {
	Store() *storage.Store
}

// Engine is the MVCC concurrency control engine for one partition.
type Engine struct {
	env   core.Env
	store *storage.Store
	// nextTS is the arrival-order timestamp counter.
	nextTS  uint64
	pending map[msg.TxnID]*mtxn
	// pendingWrites is the aggregate uncommitted-write table: at most one
	// live writer per row.
	pendingWrites map[vkey]writeRec
	// saved is the reusable LIFO buffer for snapshot overlay swaps.
	saved []savedRow
	stats core.EngineStats
}

// savedRow remembers a store row displaced by a snapshot overlay.
type savedRow struct {
	k vkey
	v version
}

// New returns an MVCC engine bound to env, which must also satisfy Storer.
func New(env core.Env) *Engine {
	st, ok := env.(Storer)
	if !ok {
		panic("mvcc: env does not provide Store()")
	}
	return &Engine{
		env:           env,
		store:         st.Store(),
		pending:       make(map[msg.TxnID]*mtxn),
		pendingWrites: make(map[vkey]writeRec),
	}
}

// Scheme identifies the engine.
func (e *Engine) Scheme() core.Scheme { return core.SchemeMVCC }

// Stats returns activity counters.
func (e *Engine) Stats() core.EngineStats { return e.stats }

// Quiescent reports whether no transaction state is live. Stale timers from
// a retired engine are ignored by Timer, so a quiescent MVCC engine can be
// swapped out.
func (e *Engine) Quiescent() bool { return len(e.pending) == 0 }

// rwLocker implements storage.Locker for read-write transactions: it
// enforces timestamp ordering eagerly and records before-images.
type rwLocker struct {
	e *Engine
	t *mtxn
}

// Lock orders one access against the live transactions. A read of another
// transaction's uncommitted write aborts the reader (no dirty reads, and
// read-write transactions read the committed head, not a snapshot). A write
// aborts when the row already has another live writer or appears in a live
// multi-round transaction's read set. On the first write to a row, the
// committed head is captured as the before-image.
func (l *rwLocker) Lock(table, key string, exclusive bool) {
	k := vkey{table, key}
	if w, ok := l.e.pendingWrites[k]; ok && w.writer != l.t.id {
		panic(core.ConflictKill{})
	}
	if !exclusive {
		if l.t.readSet != nil {
			l.t.readSet[k] = struct{}{}
		}
		return
	}
	for _, u := range l.e.pending {
		if u == l.t {
			continue
		}
		if u.readSet != nil {
			if _, read := u.readSet[k]; read {
				panic(core.ConflictKill{})
			}
		}
		for _, r := range u.scans {
			if r.Contains(k.table, k.key) {
				// Writing into a live reader's scanned range would create
				// a phantom for the earlier arrival: the writer loses.
				panic(core.ConflictKill{})
			}
		}
	}
	if w, ok := l.e.pendingWrites[k]; !ok || w.writer != l.t.id {
		val, existed := l.e.store.Table(table).Get(key)
		l.e.pendingWrites[k] = writeRec{writer: l.t.id, prev: version{val, existed}}
		l.t.writes = append(l.t.writes, k)
	}
}

// LockRange orders a read-write transaction's scan against the live writers:
// any other transaction's uncommitted write inside [lo, hi) kills the scanner
// (it would read dirty data or miss the writer's insert, either way a
// timestamp-order violation). Multi-partition transactions also record the
// range so later writers into it are killed — the scan-set analogue of the
// read set.
func (l *rwLocker) LockRange(table, lo, hi string) {
	r := msg.KeyRange{Table: table, Lo: lo, Hi: hi}
	for k, w := range l.e.pendingWrites {
		if w.writer != l.t.id && r.Contains(k.table, k.key) {
			panic(core.ConflictKill{})
		}
	}
	if l.t.readSet != nil {
		l.t.scans = append(l.t.scans, r)
	}
}

// roLocker implements storage.Locker for declared read-only transactions:
// reads are free, writes are a procedure bug.
type roLocker struct{}

func (roLocker) Lock(table, key string, exclusive bool) {
	if exclusive {
		panic("mvcc: declared read-only transaction attempted a write")
	}
}

// LockRange is free for snapshot readers: the overlay already serves the
// committed state as of arrival, so scans can never see (or be broken by) a
// concurrent writer. This is the YCSB-E payoff of MVCC — read-only scans
// never block and never abort.
func (roLocker) LockRange(table, lo, hi string) {}

// Fragment handles an arriving fragment.
func (e *Engine) Fragment(f *msg.Fragment) {
	if t, ok := e.pending[f.Txn]; ok {
		e.run(t, f)
		return
	}
	if len(e.pending) == 0 && !f.MultiPartition {
		// Idle fast path, identical to every other scheme. With nothing
		// pending there are no uncommitted writes, so the store already is
		// the snapshot — read-only transactions need no overlay either.
		core.RunIdleSP(e.env, f, &e.stats)
		return
	}
	t := &mtxn{id: f.Txn, ts: e.nextTS, ro: f.ReadOnly}
	e.nextTS++
	if t.ro {
		t.shadow = make(map[vkey]version)
	} else if f.MultiPartition {
		t.readSet = make(map[vkey]struct{})
	}
	e.pending[f.Txn] = t
	e.run(t, f)
}

// run executes one fragment for a tracked transaction.
func (e *Engine) run(t *mtxn, f *msg.Fragment) {
	t.frag = f
	if t.ro {
		e.runReadOnly(t, f)
		return
	}
	out, killed := core.ExecuteTracked(e.env, f, &rwLocker{e: e, t: t})
	if killed {
		e.stats.TSOrderAborts++
		e.env.Rollback(t.id)
		e.finishKilled(t)
		return
	}
	e.stats.Executed++
	if out.Aborted {
		// User or injected abort: Execute already rolled back. Nobody read
		// the rolled-back writes (reads of uncommitted data abort, and
		// snapshots serve before-images), so no cascades.
		e.stats.LocalAborts++
		e.release(t)
		e.env.Forget(t.id)
		core.SendAborted(e.env, f, out.Output)
		return
	}
	if !f.MultiPartition {
		e.commitLocal(t)
		e.env.Forget(t.id)
		e.env.ReplyClient(f, core.NewCommitReply(f, out.Output))
		return
	}
	// Multi-partition rounds: conflicts were resolved eagerly, so the last
	// round's yes vote needs no further validation.
	e.env.SendResult(f, core.NewResult(f, out.Output, false))
}

// runReadOnly executes a read-only fragment against the transaction's
// snapshot and votes/replies. Read-only transactions cannot fail timestamp
// ordering — they hold no locks-equivalent state and touch no writer.
func (e *Engine) runReadOnly(t *mtxn, f *msg.Fragment) {
	var out core.ExecOutcome
	e.overlay(t, func() {
		out = e.env.Execute(f, f.CanAbort, roLocker{})
	})
	e.stats.Executed++
	if out.Aborted {
		// Only an injected fault can abort a read-only transaction; there
		// is no state to roll back.
		e.stats.LocalAborts++
		e.release(t)
		e.env.Forget(t.id)
		core.SendAborted(e.env, f, out.Output)
		return
	}
	if f.MultiPartition {
		e.env.SendResult(f, core.NewResult(f, out.Output, false))
		return
	}
	e.release(t)
	e.env.Forget(t.id)
	e.env.ReplyClient(f, core.NewCommitReply(f, out.Output))
}

// overlay materializes t's snapshot in the store, runs fn, and restores the
// store exactly. The snapshot is the committed state as of t's arrival:
// before-images of all uncommitted writes (hiding dirty data) plus the
// versions captured into t.shadow when later writers committed. Displaced
// rows are restored in reverse order, so overlapping overlays (a shadow
// entry for a row that also has a live writer) unwind correctly.
func (e *Engine) overlay(t *mtxn, fn func()) {
	for k, w := range e.pendingWrites {
		e.apply(k, w.prev)
	}
	for k, v := range t.shadow {
		e.apply(k, v)
	}
	fn()
	for i := len(e.saved) - 1; i >= 0; i-- {
		s := e.saved[i]
		tbl := e.store.Table(s.k.table)
		if s.v.existed {
			tbl.Put(s.k.key, s.v.val)
		} else {
			tbl.Delete(s.k.key)
		}
	}
	e.saved = e.saved[:0]
}

// apply installs one snapshot version, remembering the displaced row.
func (e *Engine) apply(k vkey, v version) {
	tbl := e.store.Table(k.table)
	cur, ok := tbl.Get(k.key)
	e.saved = append(e.saved, savedRow{k, version{cur, ok}})
	if v.existed {
		tbl.Put(k.key, v.val)
	} else {
		tbl.Delete(k.key)
	}
}

// commitLocal commits t's writes: each retired version (the before-image)
// is captured into the snapshot of every read-only transaction still live,
// then the uncommitted-write entries are released — the store head becomes
// the committed version beginning at t's commit timestamp.
func (e *Engine) commitLocal(t *mtxn) {
	for _, k := range t.writes {
		w := e.pendingWrites[k]
		for _, u := range e.pending {
			if u.ro && u != t {
				if _, ok := u.shadow[k]; !ok {
					u.shadow[k] = w.prev
				}
			}
		}
		delete(e.pendingWrites, k)
	}
	delete(e.pending, t.id)
}

// release drops t without committing: its uncommitted writes (if any) have
// already been rolled back in the store, so the entries just vanish.
func (e *Engine) release(t *mtxn) {
	for _, k := range t.writes {
		delete(e.pendingWrites, k)
	}
	delete(e.pending, t.id)
}

// finishKilled completes a transaction killed by timestamp ordering: its
// effects are already rolled back; the client retries it with a fresh
// transaction ID (and thus a fresh, later timestamp), exactly like a
// deadlock victim under locking.
func (e *Engine) finishKilled(t *mtxn) {
	e.release(t)
	e.env.Forget(t.id)
	core.SendKilled(e.env, t.frag)
}

// Decision finalizes a multi-partition transaction.
func (e *Engine) Decision(d *msg.Decision) {
	e.env.ChargeDecision()
	t, ok := e.pending[d.Txn]
	if !ok {
		if d.Commit {
			panic(fmt.Sprintf("mvcc: commit decision for unknown txn %d", d.Txn))
		}
		// The transaction was already killed here (its no vote triggered
		// this abort), or was aborted at failover; nothing to do.
		return
	}
	if d.Commit {
		e.commitLocal(t)
		e.env.Forget(t.id)
		return
	}
	if !t.ro {
		e.env.Rollback(t.id)
	}
	e.release(t)
	e.env.Forget(t.id)
}

// Timer ignores all payloads: MVCC arms no timers, and stale timers from a
// retired engine must be dropped.
func (e *Engine) Timer(payload any) {}
