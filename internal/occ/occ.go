// Package occ implements optimistic concurrency control behind the
// core.Engine interface: transactions execute immediately — even while
// earlier multi-partition transactions are stalled in 2PC — tracking the
// read set and write set of every access, and are validated at their commit
// point. Validation fails when a read overlapped a concurrent writer (a
// pending uncommitted write, or a write committed after the transaction
// began — backward validation); the victim aborts and the client retries it
// with a fresh transaction ID through the same resend path the locking
// scheme's deadlock kills use.
//
// Because the partition is single-threaded, writes go directly into the
// store under an undo buffer. Uncommitted-write overlap (two live writers of
// one row) is prevented eagerly at access time — allowing it would make
// undo-based rollback order-dependent — and a writer also aborts rather than
// invalidate the read set of a transaction that has already voted in 2PC,
// since a vote cannot be retracted. Everything else is resolved at
// validation time, which is where OCC's optimism pays off: conflict-free
// workloads never block and never queue.
package occ

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/msg"
)

// Config tunes the OCC engine.
type Config struct {
	// DisableValidation skips commit-time validation and conflict dooming,
	// yielding an intentionally unserializable engine. It exists solely as
	// the negative control for the serializability oracle; no production
	// path sets it. Eager uncommitted-write-overlap prevention stays on
	// (without it rollback itself corrupts the store).
	DisableValidation bool
}

// vkey identifies a row.
type vkey struct {
	table, key string
}

// otxn is one live transaction's validation state.
type otxn struct {
	id   msg.TxnID
	frag *msg.Fragment
	// start is the engine's commit sequence number when the transaction
	// began; backward validation compares it against the commit sequence
	// of writes to the read set.
	start    uint64
	readSet  map[vkey]struct{}
	writeSet map[vkey]struct{}
	// scans extends the read set to scanned key ranges; validation checks
	// them against writes by containment instead of key equality. Recording
	// the *range* rather than the visited rows is what makes validation
	// phantom-safe: a write to a key that was absent at scan time still lands
	// inside the range.
	scans []msg.KeyRange
	// voted means the yes vote for this transaction has been sent (2PC);
	// its read set can no longer be invalidated by a writer.
	voted bool
	// doomed marks a transaction whose read set included a write that was
	// rolled back (it may have read a value that never existed); it fails
	// validation unconditionally.
	doomed bool
}

// Engine is the OCC concurrency control engine for one partition.
type Engine struct {
	env     core.Env
	cfg     Config
	pending map[msg.TxnID]*otxn
	// pendingWrites maps each uncommitted-written row to its single live
	// writer (eager overlap prevention guarantees uniqueness).
	pendingWrites map[vkey]msg.TxnID
	// commitSeq numbers commits; committedWrites records, per row, the
	// commit sequence of its latest committed write while any transaction
	// is pending (cleared when the partition quiesces).
	commitSeq       uint64
	committedWrites map[vkey]uint64
	stats           core.EngineStats
}

// New returns an OCC engine bound to env.
func New(env core.Env, cfg Config) *Engine {
	return &Engine{
		env:             env,
		cfg:             cfg,
		pending:         make(map[msg.TxnID]*otxn),
		pendingWrites:   make(map[vkey]msg.TxnID),
		committedWrites: make(map[vkey]uint64),
	}
}

// Scheme identifies the engine.
func (e *Engine) Scheme() core.Scheme { return core.SchemeOCC }

// Stats returns activity counters.
func (e *Engine) Stats() core.EngineStats { return e.stats }

// Quiescent reports whether no transaction state is live. Stale timers from
// a retired engine are ignored by Timer, so a quiescent OCC engine can be
// swapped out.
func (e *Engine) Quiescent() bool { return len(e.pending) == 0 }

// recorder implements storage.Locker: it records the read/write sets and
// enforces the eager write rules.
type recorder struct {
	e *Engine
	t *otxn
}

// Lock records one access. Shared accesses always proceed (dirty reads are
// permitted and settled at validation). Exclusive accesses abort the
// accessor when the row has another live writer, or a reader that has
// already voted.
func (r *recorder) Lock(table, key string, exclusive bool) {
	k := vkey{table, key}
	if !exclusive {
		r.t.readSet[k] = struct{}{}
		return
	}
	if w, ok := r.e.pendingWrites[k]; ok && w != r.t.id {
		panic(core.ConflictKill{})
	}
	for _, u := range r.e.pending {
		if u != r.t && u.voted {
			if _, read := u.readSet[k]; read {
				panic(core.ConflictKill{})
			}
			for _, sr := range u.scans {
				if sr.Contains(k.table, k.key) {
					// A voted scanner's range is as irrevocable as its
					// read set: inserting a phantom into it must fail.
					panic(core.ConflictKill{})
				}
			}
		}
	}
	r.t.writeSet[k] = struct{}{}
	r.e.pendingWrites[k] = r.t.id
}

// LockRange records a scanned range in the read set. Like point reads, scans
// proceed optimistically — overlap with live or committed-since-start writers
// is settled at validation (the phantom check).
func (r *recorder) LockRange(table, lo, hi string) {
	r.t.scans = append(r.t.scans, msg.KeyRange{Table: table, Lo: lo, Hi: hi})
}

// Fragment handles an arriving fragment.
func (e *Engine) Fragment(f *msg.Fragment) {
	if t, ok := e.pending[f.Txn]; ok {
		// A later round of a live multi-partition transaction.
		if t.doomed && !e.cfg.DisableValidation {
			t.frag = f
			e.stats.ValidationAborts++
			e.finishKilled(t)
			return
		}
		e.run(t, f)
		return
	}
	if len(e.pending) == 0 && !f.MultiPartition {
		// Idle fast path, identical to every other scheme: nothing can
		// conflict, so skip tracking and validation entirely.
		core.RunIdleSP(e.env, f, &e.stats)
		return
	}
	t := &otxn{
		id:       f.Txn,
		start:    e.commitSeq,
		readSet:  make(map[vkey]struct{}),
		writeSet: make(map[vkey]struct{}),
	}
	e.pending[f.Txn] = t
	e.run(t, f)
}

// run executes one fragment for a tracked transaction and drives the commit
// protocol: single-partition transactions validate and commit (or abort)
// immediately; multi-partition transactions validate when casting their 2PC
// vote.
func (e *Engine) run(t *otxn, f *msg.Fragment) {
	t.frag = f
	out, killed := core.ExecuteTracked(e.env, f, &recorder{e: e, t: t})
	if killed {
		e.stats.ValidationAborts++
		e.env.Rollback(t.id)
		e.finishKilled(t)
		return
	}
	e.stats.Executed++
	if out.Aborted {
		// User or injected abort: Execute already rolled back.
		e.stats.LocalAborts++
		e.abortCleanup(t)
		e.env.Forget(t.id)
		core.SendAborted(e.env, f, out.Output)
		return
	}
	if !f.MultiPartition {
		if e.validate(t) {
			e.commitLocal(t)
			e.env.Forget(t.id)
			e.env.ReplyClient(f, core.NewCommitReply(f, out.Output))
		} else {
			e.stats.ValidationAborts++
			e.env.Rollback(t.id)
			e.finishKilled(t)
		}
		return
	}
	if !f.Last {
		e.env.SendResult(f, core.NewResult(f, out.Output, false))
		return
	}
	// Commit point of a multi-partition transaction: validate before
	// casting the yes vote.
	if e.validate(t) {
		t.voted = true
		e.env.SendResult(f, core.NewResult(f, out.Output, false))
		return
	}
	e.stats.ValidationAborts++
	e.env.Rollback(t.id)
	e.finishKilled(t)
}

// validate is the commit-point check: the transaction passes unless it was
// doomed by a rolled-back writer, a row it read has a live uncommitted
// writer, or a row it read was overwritten by a commit since it began
// (backward validation).
func (e *Engine) validate(t *otxn) bool {
	if e.cfg.DisableValidation {
		return true
	}
	if t.doomed {
		return false
	}
	for k := range t.readSet {
		if w, ok := e.pendingWrites[k]; ok && w != t.id {
			return false
		}
		if e.committedWrites[k] > t.start {
			return false
		}
	}
	// Phantom check: a live or committed-since-start write anywhere inside a
	// scanned range invalidates the scan, whether or not the scan visited
	// that key. Only existence is tested, so map iteration order is moot.
	for _, r := range t.scans {
		for k, w := range e.pendingWrites {
			if w != t.id && r.Contains(k.table, k.key) {
				return false
			}
		}
		for k, seq := range e.committedWrites {
			if seq > t.start && r.Contains(k.table, k.key) {
				return false
			}
		}
	}
	return true
}

// commitLocal applies commit bookkeeping: stamp the write set with a fresh
// commit sequence number and release the transaction.
func (e *Engine) commitLocal(t *otxn) {
	e.commitSeq++
	for k := range t.writeSet {
		e.committedWrites[k] = e.commitSeq
		delete(e.pendingWrites, k)
	}
	delete(e.pending, t.id)
	e.maybeQuiesce()
}

// abortCleanup releases a transaction whose effects are rolled back (or
// never happened) and dooms live transactions that may have read its
// now-vanished writes. Voted transactions are exempt by construction: a
// write to a voted reader's read set aborts the writer eagerly, so a voted
// read set never contains uncommitted data.
func (e *Engine) abortCleanup(t *otxn) {
	delete(e.pending, t.id)
	for k := range t.writeSet {
		delete(e.pendingWrites, k)
		if e.cfg.DisableValidation {
			continue
		}
		for _, u := range e.pending {
			if u.voted {
				continue
			}
			if _, read := u.readSet[k]; read {
				u.doomed = true
				continue
			}
			for _, sr := range u.scans {
				if sr.Contains(k.table, k.key) {
					// The scan may have visited the rolled-back write.
					u.doomed = true
					break
				}
			}
		}
	}
	e.maybeQuiesce()
}

// finishKilled completes a transaction killed by validation or an eager
// conflict: its effects are already rolled back; the client retries it with
// a fresh transaction ID, exactly like a deadlock victim under locking.
func (e *Engine) finishKilled(t *otxn) {
	e.abortCleanup(t)
	e.env.Forget(t.id)
	core.SendKilled(e.env, t.frag)
}

// maybeQuiesce clears the committed-write log once nothing is pending: new
// transactions start at the current commit sequence, so entries at or below
// it can never fail a future backward validation.
func (e *Engine) maybeQuiesce() {
	if len(e.pending) == 0 && len(e.committedWrites) > 0 {
		clear(e.committedWrites)
	}
}

// Decision finalizes a multi-partition transaction.
func (e *Engine) Decision(d *msg.Decision) {
	e.env.ChargeDecision()
	t, ok := e.pending[d.Txn]
	if !ok {
		if d.Commit {
			panic(fmt.Sprintf("occ: commit decision for unknown txn %d", d.Txn))
		}
		// The transaction was already killed here (its no vote triggered
		// this abort), or was aborted at failover; nothing to do.
		return
	}
	if d.Commit {
		if !t.voted {
			panic(fmt.Sprintf("occ: commit decision for unvoted txn %d", d.Txn))
		}
		e.commitLocal(t)
		e.env.Forget(t.id)
		return
	}
	e.env.Rollback(t.id)
	e.abortCleanup(t)
	e.env.Forget(t.id)
}

// Timer ignores all payloads: OCC arms no timers, and stale timers from a
// retired engine must be dropped.
func (e *Engine) Timer(payload any) {}
