package locks

// The lock manager as it stood before holders became slices and Release
// stopped sorting entries nobody waits on: maps everywhere, every held key
// sorted on every release. TestDifferentialAgainstReference replays random
// request streams through both and demands identical answers, grant order
// included.

import (
	"slices"

	"specdb/internal/msg"
)

type refEntry struct {
	holders map[msg.TxnID]Mode
	queue   []waiter
}

// refManager is one partition's lock table.
type refManager struct {
	table map[Key]*refEntry
	// held tracks every key held per transaction, for release.
	held map[msg.TxnID]map[Key]Mode
	// waitingOn maps a blocked transaction to the key it is queued for.
	waitingOn map[msg.TxnID]Key
	stats     Stats

	// rangeKeys lists the range keys currently in the table. While it is
	// empty — every run without scans — the point path takes no overlap
	// checks and behaves byte-identically to a range-free manager.
	rangeKeys []Key
}

// newRefManager returns an empty lock table.
func newRefManager() *refManager {
	return &refManager{
		table:     make(map[Key]*refEntry),
		held:      make(map[msg.TxnID]map[Key]Mode),
		waitingOn: make(map[msg.TxnID]Key),
	}
}

// Stats returns a copy of the counters.
func (m *refManager) Stats() Stats { return m.stats }

// Active reports whether any transaction holds or awaits any lock.
func (m *refManager) Active() bool { return len(m.table) > 0 }

// HeldCount returns how many keys txn currently holds.
func (m *refManager) HeldCount(txn msg.TxnID) int { return len(m.held[txn]) }

// Holds reports whether txn holds k at least in the given mode.
func (m *refManager) Holds(txn msg.TxnID, k Key, mode Mode) bool {
	got, ok := m.held[txn][k]
	return ok && (got == Exclusive || mode == Shared)
}

// Waiting reports whether txn is queued for some lock.
func (m *refManager) Waiting(txn msg.TxnID) bool {
	_, ok := m.waitingOn[txn]
	return ok
}

// Acquire requests k in the given mode for txn. It returns true if the lock
// was granted immediately; false means txn is now queued and must suspend
// until a Grant for it is returned by Release or Remove.
func (m *refManager) Acquire(txn msg.TxnID, k Key, mode Mode) bool {
	m.stats.Acquires++
	if m.Waiting(txn) {
		panic("locks: Acquire while already waiting")
	}
	e := m.table[k]
	if e == nil {
		e = &refEntry{holders: make(map[msg.TxnID]Mode)}
		m.table[k] = e
		if k.IsRange {
			m.rangeKeys = append(m.rangeKeys, k)
		}
	}
	if cur, holds := e.holders[txn]; holds {
		if cur == Exclusive || mode == Shared {
			m.stats.Immediate++
			return true // reentrant, already sufficient
		}
		// Upgrade request.
		m.stats.Upgrades++
		if len(e.holders) == 1 && !m.conflictsElsewhere(txn, k, Exclusive) {
			e.holders[txn] = Exclusive
			m.held[txn][k] = Exclusive
			m.stats.Immediate++
			return true
		}
		// Queue the upgrade ahead of ordinary waiters.
		e.queue = append([]waiter{{txn: txn, mode: Exclusive, upgrade: true}}, e.queue...)
		m.waitingOn[txn] = k
		m.stats.Waits++
		return false
	}
	if len(e.queue) == 0 && m.compatibleWithHolders(e, mode) && !m.conflictsElsewhere(txn, k, mode) {
		m.grant(e, txn, k, mode)
		m.stats.Immediate++
		return true
	}
	e.queue = append(e.queue, waiter{txn: txn, mode: mode})
	m.waitingOn[txn] = k
	m.stats.Waits++
	return false
}

func (m *refManager) compatibleWithHolders(e *refEntry, mode Mode) bool {
	for _, hm := range e.holders {
		if !compatible(mode, hm) {
			return false
		}
	}
	return true
}

// conflictsElsewhere reports whether a request on k conflicts with a holder of
// a *different*, overlapping key: a point request landing inside a held range,
// or a range request overlapping held points and ranges. With no range keys in
// the table there is nothing to overlap (point keys only meet at equality,
// which is the same entry) and the check is one length comparison — the point
// path stays exactly as fast and as ordered as before ranges existed. Only
// holder existence matters, so iterating Go's unordered maps is deterministic.
func (m *refManager) conflictsElsewhere(txn msg.TxnID, k Key, mode Mode) bool {
	if len(m.rangeKeys) == 0 {
		return false
	}
	for _, rk := range m.rangeKeys {
		if rk == k || !overlaps(k, rk) {
			continue
		}
		for h, hm := range m.table[rk].holders {
			if h != txn && !compatible(mode, hm) {
				return true
			}
		}
	}
	if !k.IsRange {
		return false
	}
	for pk, e := range m.table {
		if pk.IsRange || pk == k || !overlaps(k, pk) {
			continue
		}
		for h, hm := range e.holders {
			if h != txn && !compatible(mode, hm) {
				return true
			}
		}
	}
	return false
}

func (m *refManager) grant(e *refEntry, txn msg.TxnID, k Key, mode Mode) {
	e.holders[txn] = mode
	hm := m.held[txn]
	if hm == nil {
		hm = make(map[Key]Mode)
		m.held[txn] = hm
	}
	hm[k] = mode
}

// Release releases every lock held by txn and removes any queued request it
// has, returning the locks newly granted to waiting transactions. Strict two
// phase locking releases only at commit/abort, so there is no single-lock
// release.
func (m *refManager) Release(txn msg.TxnID) []Grant {
	var grants []Grant
	ranged := len(m.rangeKeys) > 0
	// Cancel a pending wait first.
	if k, ok := m.waitingOn[txn]; ok {
		e := m.table[k]
		for i, w := range e.queue {
			if w.txn == txn {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		delete(m.waitingOn, txn)
		grants = m.drainQueue(e, k, grants)
		m.maybeFree(k, e)
	}
	// Sort keys: deterministic grant order keeps whole-system runs
	// reproducible (map iteration order is randomized).
	var keys []Key
	for k := range m.held[txn] {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	for _, k := range keys {
		e := m.table[k]
		delete(e.holders, txn)
		m.stats.Releases++
		grants = m.drainQueue(e, k, grants)
		m.maybeFree(k, e)
	}
	delete(m.held, txn)
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
func (m *refManager) drainAll(grants []Grant) []Grant {
	for {
		var pending []Key
		for k, e := range m.table {
			if len(e.queue) > 0 {
				pending = append(pending, k)
			}
		}
		if len(pending) == 0 {
			return grants
		}
		slices.SortFunc(pending, compareKeys)
		progress := false
		for _, k := range pending {
			e := m.table[k]
			if e == nil {
				continue
			}
			before := len(grants)
			grants = m.drainQueue(e, k, grants)
			m.maybeFree(k, e)
			if len(grants) > before {
				progress = true
			}
		}
		if !progress {
			return grants
		}
	}
}

// drainQueue grants as many queued requests as now fit, in FIFO order.
func (m *refManager) drainQueue(e *refEntry, k Key, grants []Grant) []Grant {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if w.upgrade {
			// Grantable only when w.txn is the sole holder.
			if len(e.holders) == 1 && !m.conflictsElsewhere(w.txn, k, Exclusive) {
				if _, ok := e.holders[w.txn]; ok {
					e.holders[w.txn] = Exclusive
					m.held[w.txn][k] = Exclusive
					delete(m.waitingOn, w.txn)
					grants = append(grants, Grant{Txn: w.txn, K: k, Mode: Exclusive})
					e.queue = e.queue[1:]
					continue
				}
			}
			return grants
		}
		if !m.compatibleWithHolders(e, w.mode) || m.conflictsElsewhere(w.txn, k, w.mode) {
			return grants
		}
		m.grant(e, w.txn, k, w.mode)
		delete(m.waitingOn, w.txn)
		grants = append(grants, Grant{Txn: w.txn, K: k, Mode: w.mode})
		e.queue = e.queue[1:]
	}
	return grants
}

func (m *refManager) maybeFree(k Key, e *refEntry) {
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(m.table, k)
		if k.IsRange {
			for i, rk := range m.rangeKeys {
				if rk == k {
					m.rangeKeys = append(m.rangeKeys[:i], m.rangeKeys[i+1:]...)
					break
				}
			}
		}
	}
}

// WaitsFor returns the transactions that txn is directly waiting on: holders
// of the contested lock with an incompatible mode, plus incompatible requests
// queued ahead of it.
func (m *refManager) WaitsFor(txn msg.TxnID) []msg.TxnID {
	k, ok := m.waitingOn[txn]
	if !ok {
		return nil
	}
	e := m.table[k]
	var pos int = -1
	var mode Mode
	for i, w := range e.queue {
		if w.txn == txn {
			pos, mode = i, w.mode
			break
		}
	}
	if pos < 0 {
		return nil
	}
	var out []msg.TxnID
	for h, hm := range e.holders {
		if h == txn {
			continue // upgrade: we hold S ourselves
		}
		if !compatible(mode, hm) || mode == Exclusive {
			out = append(out, h)
		}
	}
	// Cross-entry edges: holders of overlapping range keys (and, for a range
	// request, overlapping point keys) block this request just like holders
	// of the contested entry do.
	if len(m.rangeKeys) > 0 {
		for _, rk := range m.rangeKeys {
			if rk == k || !overlaps(k, rk) {
				continue
			}
			for h, hm := range m.table[rk].holders {
				if h != txn && !compatible(mode, hm) {
					out = append(out, h)
				}
			}
		}
		if k.IsRange {
			for pk, pe := range m.table {
				if pk.IsRange || pk == k || !overlaps(k, pk) {
					continue
				}
				for h, hm := range pe.holders {
					if h != txn && !compatible(mode, hm) {
						out = append(out, h)
					}
				}
			}
		}
	}
	// Deterministic edge order (holders are maps).
	slices.Sort(out)
	out = slices.Compact(out)
	for i := 0; i < pos; i++ {
		w := e.queue[i]
		if w.txn != txn && (!compatible(mode, w.mode) || mode == Exclusive) {
			out = append(out, w.txn)
		}
	}
	return out
}

// FindCycle searches the waits-for graph from start and returns the
// transactions forming a cycle that includes blocked transactions, or nil.
// It is invoked each time a transaction blocks, per §4.3 ("cycle detection to
// handle local deadlocks").
func (m *refManager) FindCycle(start msg.TxnID) []msg.TxnID {
	// Iterative DFS with path tracking. The graph is tiny (bounded by
	// concurrently active transactions at one partition).
	onPath := map[msg.TxnID]bool{}
	var path []msg.TxnID
	var dfs func(t msg.TxnID) []msg.TxnID
	visited := map[msg.TxnID]bool{}
	dfs = func(t msg.TxnID) []msg.TxnID {
		if onPath[t] {
			// Extract the cycle suffix.
			for i, p := range path {
				if p == t {
					return append([]msg.TxnID(nil), path[i:]...)
				}
			}
			return append([]msg.TxnID(nil), path...)
		}
		if visited[t] {
			return nil
		}
		visited[t] = true
		onPath[t] = true
		path = append(path, t)
		for _, next := range m.WaitsFor(t) {
			if cyc := dfs(next); cyc != nil {
				return cyc
			}
		}
		path = path[:len(path)-1]
		onPath[t] = false
		return nil
	}
	return dfs(start)
}
