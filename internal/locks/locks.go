// Package locks implements the single-threaded lock manager of §4.3. Because
// each partition runs one thread, there is no latching: the manager is plain
// data manipulated between transaction steps, which is exactly the property
// the paper exploits to make locking "much lower overhead than traditional
// locking schemes".
//
// Locks are row-granularity shared/exclusive with FIFO wait queues and
// shared→exclusive upgrades. The manager exposes the waits-for graph so the
// engine can run cycle detection at block time and choose a victim (the paper
// prefers killing single-partition transactions, which waste less work).
package locks

import (
	"fmt"
	"slices"

	"specdb/internal/msg"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// compatible reports whether a lock in mode a coexists with one in mode b.
// The same S/X row applies to range keys, through the overlap predicate: two
// locks conflict iff their keys overlap and their modes are incompatible.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Key identifies a lockable unit: a single row, or — when IsRange is set — the
// half-open key range [Row, Hi). Range keys are how scans take next-key/gap
// coverage: an insert's point-X on any key inside the range conflicts with the
// scanner's range-S even though the scanner never touched that row.
type Key struct {
	Table string
	// Row is the point row, or the inclusive low bound of a range.
	Row string
	// Hi is the exclusive high bound of a range key; empty means unbounded.
	Hi string
	// IsRange marks the key as covering [Row, Hi) rather than the single Row.
	IsRange bool
}

func (k Key) String() string {
	if k.IsRange {
		return fmt.Sprintf("%s[%q,%q)", k.Table, k.Row, k.Hi)
	}
	return fmt.Sprintf("%s[%q]", k.Table, k.Row)
}

// overlaps reports whether two keys cover a common row (same table, and point
// equality, point-in-range containment, or range intersection).
func overlaps(a, b Key) bool {
	if a.Table != b.Table {
		return false
	}
	switch {
	case !a.IsRange && !b.IsRange:
		return a.Row == b.Row
	case a.IsRange && !b.IsRange:
		return b.Row >= a.Row && (a.Hi == "" || b.Row < a.Hi)
	case !a.IsRange && b.IsRange:
		return a.Row >= b.Row && (b.Hi == "" || a.Row < b.Hi)
	default:
		return (a.Hi == "" || b.Row < a.Hi) && (b.Hi == "" || a.Row < b.Hi)
	}
}

// compareKeys is the deterministic total order used wherever keys are sorted.
func compareKeys(a, b Key) int {
	if a.Table != b.Table {
		if a.Table < b.Table {
			return -1
		}
		return 1
	}
	if a.Row != b.Row {
		if a.Row < b.Row {
			return -1
		}
		return 1
	}
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.IsRange != b.IsRange {
		if !a.IsRange {
			return -1
		}
		return 1
	}
	return 0
}

// Grant reports a lock granted to a previously waiting transaction.
type Grant struct {
	Txn  msg.TxnID
	K    Key
	Mode Mode
}

// Stats counts lock manager activity for the cost model and the §5.6
// profiler-style breakdown.
type Stats struct {
	Acquires  uint64 // Acquire calls
	Immediate uint64 // granted without waiting
	Waits     uint64 // had to queue
	Upgrades  uint64 // S→X upgrades (immediate or queued)
	Releases  uint64 // locks released
}

// Add returns the field-wise sum of two stat sets; the hosting partition
// uses it to carry lock statistics across engine swaps.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Acquires:  s.Acquires + o.Acquires,
		Immediate: s.Immediate + o.Immediate,
		Waits:     s.Waits + o.Waits,
		Upgrades:  s.Upgrades + o.Upgrades,
		Releases:  s.Releases + o.Releases,
	}
}

type waiter struct {
	txn     msg.TxnID
	mode    Mode
	upgrade bool
}

type holder struct {
	txn  msg.TxnID
	mode Mode
}

// entry is one key's lock state. A row is nearly always held by one
// transaction with nobody waiting, so holders is a slice searched linearly.
type entry struct {
	key     Key
	holders []holder
	queue   []waiter
}

// mode returns the mode in which txn holds e.
func (e *entry) mode(txn msg.TxnID) (Mode, bool) {
	for _, h := range e.holders {
		if h.txn == txn {
			return h.mode, true
		}
	}
	return 0, false
}

// soleHolder reports whether txn is e's only holder.
func (e *entry) soleHolder(txn msg.TxnID) bool {
	return len(e.holders) == 1 && e.holders[0].txn == txn
}

// blocks reports whether a holder of e other than txn is incompatible with
// a request in the given mode.
func (e *entry) blocks(txn msg.TxnID, mode Mode) bool {
	for _, h := range e.holders {
		if h.txn != txn && !compatible(mode, h.mode) {
			return true
		}
	}
	return false
}

// compareEntries orders entries by key, for deterministic grant order.
func compareEntries(a, b *entry) int { return compareKeys(a.key, b.key) }

func (e *entry) drop(txn msg.TxnID) {
	for i, h := range e.holders {
		if h.txn == txn {
			e.holders = append(e.holders[:i], e.holders[i+1:]...)
			return
		}
	}
}

// txnLocks is what one transaction holds and waits for.
type txnLocks struct {
	// held lists the entries the transaction holds, in acquisition order.
	held []*entry
	// waiting is the entry the transaction is queued on, if any.
	waiting *entry
}

// Manager is one partition's lock table.
type Manager struct {
	table map[Key]*entry
	txns  map[msg.TxnID]*txnLocks
	stats Stats

	// freeEntries and freeTxns recycle emptied lock entries and per-txn
	// records. Every transaction acquires and fully releases a handful of row
	// locks, and without recycling each acquire/release cycle re-allocates
	// them — the lock manager was a top allocator in whole-run profiles, the
	// opposite of the paper's "much lower overhead than traditional locking"
	// claim (§4.3).
	freeEntries []*entry
	freeTxns    []*txnLocks
	// scratch reuses Release's deterministic key-ordering buffer; path,
	// visited and edges are FindCycle's.
	scratch              []*entry
	path, visited, edges []msg.TxnID

	// ranges lists the range entries currently in the table. While it is
	// empty — every run without scans — the point path takes no overlap
	// checks and behaves byte-identically to a range-free manager.
	ranges []*entry
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		table: make(map[Key]*entry),
		txns:  make(map[msg.TxnID]*txnLocks),
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Active reports whether any transaction holds or awaits any lock.
func (m *Manager) Active() bool { return len(m.table) > 0 }

// HeldCount returns how many keys txn currently holds.
func (m *Manager) HeldCount(txn msg.TxnID) int {
	if tl := m.txns[txn]; tl != nil {
		return len(tl.held)
	}
	return 0
}

// Holds reports whether txn holds k at least in the given mode.
func (m *Manager) Holds(txn msg.TxnID, k Key, mode Mode) bool {
	e := m.table[k]
	if e == nil {
		return false
	}
	got, ok := e.mode(txn)
	return ok && (got == Exclusive || mode == Shared)
}

// Waiting reports whether txn is queued for some lock.
func (m *Manager) Waiting(txn msg.TxnID) bool {
	tl := m.txns[txn]
	return tl != nil && tl.waiting != nil
}

// locksOf returns txn's record, creating it on the transaction's first
// request.
func (m *Manager) locksOf(txn msg.TxnID) *txnLocks {
	tl := m.txns[txn]
	if tl == nil {
		if n := len(m.freeTxns); n > 0 {
			tl = m.freeTxns[n-1]
			m.freeTxns = m.freeTxns[:n-1]
		} else {
			tl = &txnLocks{}
		}
		m.txns[txn] = tl
	}
	return tl
}

// Acquire requests k in the given mode for txn. It returns true if the lock
// was granted immediately; false means txn is now queued and must wait until
// Release returns a Grant for it.
func (m *Manager) Acquire(txn msg.TxnID, k Key, mode Mode) bool {
	m.stats.Acquires++
	tl := m.locksOf(txn)
	if tl.waiting != nil {
		panic("locks: Acquire while already waiting")
	}
	e := m.table[k]
	if e == nil {
		if n := len(m.freeEntries); n > 0 {
			e = m.freeEntries[n-1]
			m.freeEntries = m.freeEntries[:n-1]
		} else {
			e = &entry{}
		}
		e.key = k
		m.table[k] = e
		if k.IsRange {
			m.ranges = append(m.ranges, e)
		}
	}
	if cur, holds := e.mode(txn); holds {
		if cur == Exclusive || mode == Shared {
			m.stats.Immediate++
			return true // reentrant, already sufficient
		}
		// Upgrade request.
		m.stats.Upgrades++
		if e.soleHolder(txn) && !m.conflictsElsewhere(txn, k, Exclusive) {
			e.holders[0].mode = Exclusive
			m.stats.Immediate++
			return true
		}
		// Queue the upgrade ahead of ordinary waiters.
		e.queue = slices.Insert(e.queue, 0, waiter{txn: txn, mode: Exclusive, upgrade: true})
		tl.waiting = e
		m.stats.Waits++
		return false
	}
	if len(e.queue) == 0 && !e.blocks(txn, mode) && !m.conflictsElsewhere(txn, k, mode) {
		e.holders = append(e.holders, holder{txn, mode})
		tl.held = append(tl.held, e)
		m.stats.Immediate++
		return true
	}
	e.queue = append(e.queue, waiter{txn: txn, mode: mode})
	tl.waiting = e
	m.stats.Waits++
	return false
}

// conflictsElsewhere reports whether a request on k conflicts with a holder of
// a *different*, overlapping key: a point request landing inside a held range,
// or a range request overlapping held points and ranges. With no range keys in
// the table there is nothing to overlap (point keys only meet at equality,
// which is the same entry) and the check is one length comparison — the point
// path stays exactly as fast and as ordered as before ranges existed. Only
// holder existence matters, so iterating Go's unordered maps is deterministic.
func (m *Manager) conflictsElsewhere(txn msg.TxnID, k Key, mode Mode) bool {
	if len(m.ranges) == 0 {
		return false
	}
	for _, re := range m.ranges {
		if re.key != k && overlaps(k, re.key) && re.blocks(txn, mode) {
			return true
		}
	}
	if !k.IsRange {
		return false
	}
	for pk, e := range m.table {
		if !pk.IsRange && overlaps(k, pk) && e.blocks(txn, mode) {
			return true
		}
	}
	return false
}

// Release releases every lock held by txn and removes any queued request it
// has, returning the locks newly granted to waiting transactions. Strict two
// phase locking releases only at commit/abort, so there is no single-lock
// release.
func (m *Manager) Release(txn msg.TxnID) []Grant {
	tl := m.txns[txn]
	if tl == nil {
		return nil
	}
	var grants []Grant
	ranged := len(m.ranges) > 0
	// Cancel a pending wait first.
	if e := tl.waiting; e != nil {
		for i, w := range e.queue {
			if w.txn == txn {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		tl.waiting = nil
		grants = m.drainQueue(e, grants)
		m.maybeFree(e)
	}
	// Grants go out in key order, which keeps whole-system runs reproducible
	// whatever order the transaction took its locks in. Without ranges only an
	// entry's own queue can be granted from, so the order in which entries
	// nobody waits on are released is unobservable: they go first, unsorted.
	queued := m.scratch[:0]
	for _, e := range tl.held {
		if ranged || len(e.queue) > 0 {
			queued = append(queued, e)
			continue
		}
		e.drop(txn)
		m.maybeFree(e)
	}
	slices.SortFunc(queued, compareEntries)
	for _, e := range queued {
		e.drop(txn)
		grants = m.drainQueue(e, grants)
		m.maybeFree(e)
	}
	m.stats.Releases += uint64(len(tl.held))
	m.scratch = queued
	delete(m.txns, txn)
	tl.held = tl.held[:0]
	m.freeTxns = append(m.freeTxns, tl)
	if ranged {
		// Releasing range coverage can unblock waiters queued on *other*
		// entries (points inside the range, overlapping ranges); the per-key
		// drains above only saw their own queues. Run a global pass to
		// fixpoint, in sorted key order for determinism.
		grants = m.drainAll(grants)
	}
	return grants
}

// drainAll repeatedly sweeps every queued entry in sorted key order, granting
// whatever has become grantable under the overlap rule, until a full pass
// grants nothing. Only invoked when range keys are (or were just) in play.
func (m *Manager) drainAll(grants []Grant) []Grant {
	for {
		var pending []*entry
		for _, e := range m.table {
			if len(e.queue) > 0 {
				pending = append(pending, e)
			}
		}
		if len(pending) == 0 {
			return grants
		}
		slices.SortFunc(pending, compareEntries)
		before := len(grants)
		for _, e := range pending {
			grants = m.drainQueue(e, grants)
			m.maybeFree(e)
		}
		if len(grants) == before {
			return grants
		}
	}
}

// drainQueue grants as many queued requests as now fit, in FIFO order.
func (m *Manager) drainQueue(e *entry, grants []Grant) []Grant {
	for len(e.queue) > 0 {
		w := e.queue[0]
		tl := m.txns[w.txn]
		if w.upgrade {
			// Grantable only when w.txn is the sole holder.
			if !e.soleHolder(w.txn) || m.conflictsElsewhere(w.txn, e.key, Exclusive) {
				return grants
			}
			e.holders[0].mode = Exclusive
		} else {
			if e.blocks(w.txn, w.mode) || m.conflictsElsewhere(w.txn, e.key, w.mode) {
				return grants
			}
			e.holders = append(e.holders, holder{w.txn, w.mode})
			tl.held = append(tl.held, e)
		}
		tl.waiting = nil
		grants = append(grants, Grant{Txn: w.txn, K: e.key, Mode: w.mode})
		e.queue = e.queue[1:]
	}
	return grants
}

// maybeFree takes e out of the table once nobody holds or awaits it.
func (m *Manager) maybeFree(e *entry) {
	if len(e.holders) > 0 || len(e.queue) > 0 {
		return
	}
	delete(m.table, e.key)
	if e.key.IsRange {
		m.ranges = slices.DeleteFunc(m.ranges, func(re *entry) bool { return re == e })
	}
	// holders is already empty and the queue drained, so the entry — both
	// slices' capacity included — is ready for the next acquire.
	m.freeEntries = append(m.freeEntries, e)
}

// WaitsFor returns the transactions that txn is directly waiting on: holders
// of the contested lock with an incompatible mode, plus incompatible requests
// queued ahead of it.
func (m *Manager) WaitsFor(txn msg.TxnID) []msg.TxnID {
	return m.appendWaitsFor(nil, txn)
}

// appendWaitsFor appends WaitsFor(txn) to out.
func (m *Manager) appendWaitsFor(out []msg.TxnID, txn msg.TxnID) []msg.TxnID {
	tl := m.txns[txn]
	if tl == nil || tl.waiting == nil {
		return out
	}
	e := tl.waiting
	pos := slices.IndexFunc(e.queue, func(w waiter) bool { return w.txn == txn })
	if pos < 0 {
		return out
	}
	mode := e.queue[pos].mode
	from := len(out)
	blockers := func(o *entry) {
		for _, h := range o.holders {
			// An upgrade holds S on the contested entry itself.
			if h.txn != txn && !compatible(mode, h.mode) {
				out = append(out, h.txn)
			}
		}
	}
	blockers(e)
	// Cross-entry edges: holders of overlapping range keys (and, for a range
	// request, overlapping point keys) block this request just like holders
	// of the contested entry do.
	if len(m.ranges) > 0 {
		k := e.key
		for _, re := range m.ranges {
			if re != e && overlaps(k, re.key) {
				blockers(re)
			}
		}
		if k.IsRange {
			for pk, pe := range m.table {
				if !pk.IsRange && overlaps(k, pk) {
					blockers(pe)
				}
			}
		}
	}
	// Deterministic edge order, whatever order holders arrived in.
	slices.Sort(out[from:])
	out = out[:from+len(slices.Compact(out[from:]))]
	for _, w := range e.queue[:pos] {
		if w.txn != txn && !compatible(mode, w.mode) {
			out = append(out, w.txn)
		}
	}
	return out
}

// FindCycle searches the waits-for graph from start and returns the
// transactions forming a cycle that includes blocked transactions, or nil.
// It is invoked each time a transaction blocks, per §4.3 ("cycle detection to
// handle local deadlocks").
func (m *Manager) FindCycle(start msg.TxnID) []msg.TxnID {
	// Depth-first search with path tracking. The graph is tiny (bounded by
	// concurrently active transactions at one partition), so the visited and
	// on-path sets are slices, kept between calls.
	m.path, m.visited, m.edges = m.path[:0], m.visited[:0], m.edges[:0]
	return m.dfs(start)
}

func (m *Manager) dfs(t msg.TxnID) []msg.TxnID {
	if i := slices.Index(m.path, t); i >= 0 {
		return slices.Clone(m.path[i:]) // the cycle is the path's suffix
	}
	if slices.Contains(m.visited, t) {
		return nil
	}
	m.visited = append(m.visited, t)
	m.path = append(m.path, t)
	// t's edges sit on a stack shared by the whole search; deeper levels push
	// above them and pop before returning.
	lo := len(m.edges)
	m.edges = m.appendWaitsFor(m.edges, t)
	for i, hi := lo, len(m.edges); i < hi; i++ {
		if cyc := m.dfs(m.edges[i]); cyc != nil {
			return cyc
		}
	}
	m.edges = m.edges[:lo]
	m.path = m.path[:len(m.path)-1]
	return nil
}
