// Package storage implements a partition's in-memory store: a set of named
// tables backed by either a B+tree (ordered, scannable) or a hash table.
//
// Rows follow a copy-on-write discipline: Get returns the stored value, and
// updates must Put a fresh value rather than mutating the returned one. All
// access from stored procedures flows through TxnView, the single choke point
// where undo before-images are recorded and, under the locking scheme, row
// locks are acquired. This mirrors the paper's engine, where concurrency
// control can be switched on and off around an otherwise identical executor.
package storage

import (
	"fmt"
	"sort"

	"specdb/internal/btree"
	"specdb/internal/undo"
)

// Table is a single-partition table. Implementations are not safe for
// concurrent use; each partition is single-threaded by construction.
type Table interface {
	Name() string
	Get(key string) (any, bool)
	// Put stores v under key, returning the previous value if any.
	Put(key string, v any) (prev any, existed bool)
	// Delete removes key, returning the previous value if any.
	Delete(key string) (prev any, existed bool)
	// Ascend visits lo <= key < hi ascending; empty hi means unbounded.
	Ascend(lo, hi string, fn func(k string, v any) bool)
	// Descend visits lo <= key < hi descending; empty hi means unbounded.
	Descend(lo, hi string, fn func(k string, v any) bool)
	Len() int
	// Restore reinstates a before-image captured by Put or Delete; tables
	// are the undo.Restorer of their own rows, which lets TxnView record
	// value-typed undo entries without a per-entry allocation.
	Restore(key string, prev any, existed bool)
}

// BTreeTable is an ordered table.
type BTreeTable struct {
	name string
	t    *btree.Tree[any]
}

// NewBTreeTable returns an empty ordered table.
func NewBTreeTable(name string) *BTreeTable {
	return &BTreeTable{name: name, t: btree.New[any]()}
}

func (b *BTreeTable) Name() string { return b.name }

func (b *BTreeTable) Get(key string) (any, bool) { return b.t.Get(key) }

func (b *BTreeTable) Put(key string, v any) (any, bool) {
	prev, existed := b.t.Get(key)
	b.t.Put(key, v)
	return prev, existed
}

func (b *BTreeTable) Delete(key string) (any, bool) { return b.t.Delete(key) }

func (b *BTreeTable) Ascend(lo, hi string, fn func(k string, v any) bool) {
	b.t.Ascend(lo, hi, fn)
}

func (b *BTreeTable) Descend(lo, hi string, fn func(k string, v any) bool) {
	b.t.Descend(lo, hi, fn)
}

func (b *BTreeTable) Len() int { return b.t.Len() }

func (b *BTreeTable) Restore(key string, prev any, existed bool) {
	restoreRow(b, key, prev, existed)
}

// HashTable is an unordered table. Scans are supported for completeness but
// cost a sort; schema authors should use BTreeTable where scans matter.
type HashTable struct {
	name string
	m    map[string]any
}

// NewHashTable returns an empty hash table.
func NewHashTable(name string) *HashTable {
	return &HashTable{name: name, m: make(map[string]any)}
}

func (h *HashTable) Name() string { return h.name }

func (h *HashTable) Get(key string) (any, bool) {
	v, ok := h.m[key]
	return v, ok
}

func (h *HashTable) Put(key string, v any) (any, bool) {
	prev, existed := h.m[key]
	h.m[key] = v
	return prev, existed
}

func (h *HashTable) Delete(key string) (any, bool) {
	prev, existed := h.m[key]
	if existed {
		delete(h.m, key)
	}
	return prev, existed
}

func (h *HashTable) sortedKeys(lo, hi string) []string {
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		if k >= lo && (hi == "" || k < hi) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (h *HashTable) Ascend(lo, hi string, fn func(k string, v any) bool) {
	for _, k := range h.sortedKeys(lo, hi) {
		if !fn(k, h.m[k]) {
			return
		}
	}
}

func (h *HashTable) Descend(lo, hi string, fn func(k string, v any) bool) {
	keys := h.sortedKeys(lo, hi)
	for i := len(keys) - 1; i >= 0; i-- {
		if !fn(keys[i], h.m[keys[i]]) {
			return
		}
	}
}

func (h *HashTable) Len() int { return len(h.m) }

func (h *HashTable) Restore(key string, prev any, existed bool) {
	restoreRow(h, key, prev, existed)
}

// restoreRow applies one undo before-image to a table.
func restoreRow(t Table, key string, prev any, existed bool) {
	if existed {
		t.Put(key, prev)
	} else {
		t.Delete(key)
	}
}

// Store is the collection of tables owned by one partition.
type Store struct {
	tables map[string]Table
	order  []string // registration order, for deterministic iteration
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]Table)}
}

// AddTable registers a table. It panics on duplicate names: schemas are
// static configuration, so a duplicate is a programming error.
func (s *Store) AddTable(t Table) {
	if _, dup := s.tables[t.Name()]; dup {
		panic(fmt.Sprintf("storage: duplicate table %q", t.Name()))
	}
	s.tables[t.Name()] = t
	s.order = append(s.order, t.Name())
}

// Table returns the named table, panicking if absent (static schema).
func (s *Store) Table(name string) Table {
	t, ok := s.tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}

// TableNames returns table names in registration order.
func (s *Store) TableNames() []string {
	return append([]string(nil), s.order...)
}

// Fingerprint folds every table's contents into a 64-bit hash (FNV-1a over
// keys and formatted values). Tests use it to compare end states across
// schemes and replicas.
func (s *Store) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b string) {
		for i := 0; i < len(b); i++ {
			h ^= uint64(b[i])
			h *= prime64
		}
	}
	for _, name := range s.order {
		mix(name)
		s.tables[name].Ascend("", "", func(k string, v any) bool {
			mix(k)
			mix(fmt.Sprintf("%v", v))
			return true
		})
	}
	return h
}

// Clone returns a snapshot of the store: fresh tables of the same kinds
// holding the same keys and row values. Row values are shared, not copied —
// safe under the copy-on-write row discipline (updates Put fresh values,
// never mutate in place), so a clone taken at a quiescent instant stays
// consistent while the original keeps mutating. Fuzzy checkpoints
// (internal/durable) are built on exactly this property.
func (s *Store) Clone() *Store {
	out := NewStore()
	for _, name := range s.order {
		t := s.tables[name]
		var nt Table
		if _, ordered := t.(*BTreeTable); ordered {
			nt = NewBTreeTable(name)
		} else {
			nt = NewHashTable(name)
		}
		t.Ascend("", "", func(k string, v any) bool {
			nt.Put(k, v)
			return true
		})
		out.AddTable(nt)
	}
	return out
}

// Row is one row addressed store-wide: the table it lives in, its key, and its
// value (a reference — rows are copy-on-write, so sharing it is safe). Key-range
// migrations move rows between stores in this form.
type Row struct {
	Table string
	Key   string
	Val   any
}

// TakeRange removes every row whose key lies in [lo, hi) from every table and
// returns the removed rows in table-registration then key order (empty hi
// means unbounded). A migrating partition surrenders a key range with it, and
// its backups and its log replay mirror the surrender by discarding the result.
func (s *Store) TakeRange(lo, hi string) []Row {
	var rows []Row
	for _, name := range s.order {
		s.tables[name].Ascend(lo, hi, func(k string, v any) bool {
			rows = append(rows, Row{Table: name, Key: k, Val: v})
			return true
		})
	}
	for _, r := range rows {
		s.tables[r.Table].Delete(r.Key)
	}
	return rows
}

// PutRows installs rows, the adopting side of TakeRange.
func (s *Store) PutRows(rows []Row) {
	for _, r := range rows {
		s.Table(r.Table).Put(r.Key, r.Val)
	}
}

// ApproxBytes estimates the store's serialized size — keys plus a fixed
// per-row value charge — for pricing checkpoint writes and recovery loads.
// The paper's workloads use deliberately tiny values (§5.1), so a coarse
// estimate is plenty.
func (s *Store) ApproxBytes() uint64 {
	const perRow = 16
	var n uint64
	for _, name := range s.order {
		n += uint64(len(name))
		s.tables[name].Ascend("", "", func(k string, v any) bool {
			n += uint64(len(k)) + perRow
			return true
		})
	}
	return n
}

// DiffStores compares two stores key-for-key, returning a descriptive error
// for the first divergence found (table sets, row counts, keys, or values —
// values compared by their fmt representation, matching Fingerprint's
// discipline) and nil when the stores are equivalent. Replica tests use it
// to verify each backup converged to its primary's exact state.
func DiffStores(a, b *Store) error {
	an, bn := a.TableNames(), b.TableNames()
	if len(an) != len(bn) {
		return fmt.Errorf("storage: table count differs: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return fmt.Errorf("storage: table %d differs: %q vs %q", i, an[i], bn[i])
		}
	}
	for _, name := range an {
		ta, tb := a.Table(name), b.Table(name)
		if ta.Len() != tb.Len() {
			return fmt.Errorf("storage: table %q row count differs: %d vs %d", name, ta.Len(), tb.Len())
		}
		var diff error
		ta.Ascend("", "", func(k string, v any) bool {
			w, ok := tb.Get(k)
			if !ok {
				diff = fmt.Errorf("storage: table %q key %q missing from second store", name, k)
				return false
			}
			if fmt.Sprintf("%v", v) != fmt.Sprintf("%v", w) {
				diff = fmt.Errorf("storage: table %q key %q differs: %v vs %v", name, k, v, w)
				return false
			}
			return true
		})
		if diff != nil {
			return diff
		}
	}
	return nil
}

// Locker sees every row access of an executing transaction before it happens.
// The locking engine acquires row locks through it and the optimistic engines
// (MVCC, OCC) track and check accesses; blocking and speculation run with a
// nil Locker ("assume everything conflicts" — §4.2).
//
// Lock either returns, and the access proceeds, or unwinds the caller with the
// engine's panic sentinel (a lock that has to be waited for, an access that
// lost the engine's conflict rule). The engine undoes what the body wrote and
// may run it again from its start, so a body must be re-runnable and have no
// effect outside its view — the same contract speculation's re-execution after
// a cascading abort already relies on.
type Locker interface {
	// Lock announces an access to the row in shared or exclusive mode.
	Lock(table, key string, exclusive bool)
}

// RangeLocker is the optional extension lockers implement to cover a scanned
// key range as a unit instead of row by row. Covering the range (not just the
// rows present in it) is what provides phantom protection: an insert into
// [lo,hi) conflicts with the range even though no visited row does. Lockers
// without this extension fall back to per-row shared locks, which admit
// phantoms.
type RangeLocker interface {
	Locker
	// LockRange acquires shared coverage of lo <= key < hi (empty hi means
	// unbounded). Like Lock, it returns or unwinds the caller with the
	// engine's sentinel.
	LockRange(table, lo, hi string)
}

// Observer sees every row access a TxnView performs, with the value read or
// written. The serializability oracle (internal/oracle) installs one to build
// per-transaction value traces; a nil Observer costs one branch per access.
// Retaining observed values is safe under the copy-on-write row discipline.
type Observer interface {
	// ObserveGet records a read (point read or scan visit) of a row that
	// held val (ok) or was absent (!ok).
	ObserveGet(table, key string, val any, ok bool)
	// ObservePut records a write of val.
	ObservePut(table, key string, val any)
	// ObserveDelete records a delete.
	ObserveDelete(table, key string)
	// ObserveScan records a completed range scan: the bounds and limit the
	// transaction asked for, plus the exact key/value sequence it saw. The
	// oracle re-executes the scan at replay; a row present at replay but
	// absent from keys (or vice versa) is a phantom.
	ObserveScan(table, lo, hi string, reverse bool, limit int, keys []string, vals []any)
}

// TxnView is the data access handle given to stored procedure fragments.
type TxnView struct {
	store  *Store
	undo   *undo.Buffer
	locker Locker
	// Obs, when non-nil, observes every access with its value. Reset wipes
	// it; hosts that install an Observer must re-set it after Reset.
	Obs Observer
	// Counters for the cost model and Table 2 instrumentation.
	Reads, Writes, LockAcquires int
}

// NewTxnView builds a view. undoBuf may be nil (no-abort fast path); locker
// may be nil (blocking/speculation, or locking's lock-free fast path).
func NewTxnView(store *Store, undoBuf *undo.Buffer, locker Locker) *TxnView {
	return &TxnView{store: store, undo: undoBuf, locker: locker}
}

// Reset re-initializes a view in place, zeroing its counters. Fragment bodies
// never overlap — one returns, or is unwound by its Locker, before the next
// starts — so an executor reuses a single view across fragments instead of
// allocating one per execution; procedures must not retain the view beyond
// Run, which the txn.Procedure contract already demands.
func (v *TxnView) Reset(store *Store, undoBuf *undo.Buffer, locker Locker) {
	*v = TxnView{store: store, undo: undoBuf, locker: locker}
}

// Store returns the underlying store (for schema-aware helpers).
func (v *TxnView) Store() *Store { return v.store }

// Undoing reports whether the view records undo information.
func (v *TxnView) Undoing() bool { return v.undo != nil }

func (v *TxnView) lock(table, key string, exclusive bool) {
	if v.locker != nil {
		v.LockAcquires++
		v.locker.Lock(table, key, exclusive)
	}
}

// Get reads a row.
func (v *TxnView) Get(table, key string) (any, bool) {
	v.lock(table, key, false)
	v.Reads++
	val, ok := v.store.Table(table).Get(key)
	if v.Obs != nil {
		v.Obs.ObserveGet(table, key, val, ok)
	}
	return val, ok
}

// GetForUpdate reads a row taking an exclusive lock up front. Read-modify-
// write accesses must use it: acquiring S and upgrading to X later deadlocks
// as soon as two transactions race on the same row.
func (v *TxnView) GetForUpdate(table, key string) (any, bool) {
	v.lock(table, key, true)
	v.Reads++
	val, ok := v.store.Table(table).Get(key)
	if v.Obs != nil {
		v.Obs.ObserveGet(table, key, val, ok)
	}
	return val, ok
}

// Put writes a row (insert or update). The caller must not mutate a value
// obtained from Get; it must Put a fresh copy.
func (v *TxnView) Put(table, key string, val any) {
	v.lock(table, key, true)
	v.Writes++
	t := v.store.Table(table)
	prev, existed := t.Put(key, val)
	if v.undo != nil {
		v.undo.Record(undo.Entry{Target: t, Key: key, Prev: prev, Existed: existed})
	}
	if v.Obs != nil {
		v.Obs.ObservePut(table, key, val)
	}
}

// Delete removes a row.
func (v *TxnView) Delete(table, key string) bool {
	v.lock(table, key, true)
	v.Writes++
	t := v.store.Table(table)
	prev, existed := t.Delete(key)
	if v.undo != nil && existed {
		v.undo.Record(undo.Entry{Target: t, Key: key, Prev: prev, Existed: true})
	}
	if v.Obs != nil {
		v.Obs.ObserveDelete(table, key)
	}
	return existed
}

// Ascend scans lo <= key < hi ascending, acquiring shared locks on visited
// rows. Phantom protection is not provided (row-level locking only), matching
// the paper's prototype granularity.
func (v *TxnView) Ascend(table, lo, hi string, fn func(k string, val any) bool) {
	v.store.Table(table).Ascend(lo, hi, func(k string, val any) bool {
		v.lock(table, k, false)
		v.Reads++
		if v.Obs != nil {
			v.Obs.ObserveGet(table, k, val, true)
		}
		return fn(k, val)
	})
}

// Descend scans lo <= key < hi descending, acquiring shared locks.
func (v *TxnView) Descend(table, lo, hi string, fn func(k string, val any) bool) {
	v.store.Table(table).Descend(lo, hi, func(k string, val any) bool {
		v.lock(table, k, false)
		v.Reads++
		if v.Obs != nil {
			v.Obs.ObserveGet(table, k, val, true)
		}
		return fn(k, val)
	})
}

// Scan visits lo <= key < hi ascending, stopping after limit rows (limit <= 0
// means unbounded), and returns the number of rows visited. Unlike Ascend it
// is phantom-safe: a RangeLocker covers the whole range as a unit before any
// row is read, so concurrent inserts into the range conflict with the scan
// even though they touch no visited row. Lockers without range support fall
// back to per-row shared locks.
func (v *TxnView) Scan(table, lo, hi string, limit int, fn func(k string, val any) bool) int {
	return v.scan(table, lo, hi, limit, false, fn)
}

// ScanReverse is Scan in descending key order over the same half-open range.
func (v *TxnView) ScanReverse(table, lo, hi string, limit int, fn func(k string, val any) bool) int {
	return v.scan(table, lo, hi, limit, true, fn)
}

// scanVisitor carries a scan's traversal state. Hoisting it into a struct —
// with the visitor as a method rather than a func literal — lets the struct
// live on the caller's stack when the traversal is dispatched on the concrete
// *BTreeTable, so the warm ordered scan allocates nothing. The table-interface
// fallback uses a second struct instance whose address does escape; keeping
// the two instances distinct is what stops that path from poisoning this one.
type scanVisitor struct {
	v      *TxnView
	table  string
	fn     func(k string, val any) bool
	limit  int
	locked bool // no per-row locks: lock-free view, or a range lock covers us
	n      int
	// Collected only for the oracle; production runs (nil Obs) pay nothing.
	keys []string
	vals []any
}

func (sv *scanVisitor) visit(k string, val any) bool {
	if !sv.locked {
		sv.v.lock(sv.table, k, false)
	}
	sv.v.Reads++
	sv.n++
	if sv.v.Obs != nil {
		sv.keys = append(sv.keys, k)
		sv.vals = append(sv.vals, val)
	}
	if !sv.fn(k, val) {
		return false
	}
	return sv.limit <= 0 || sv.n < sv.limit
}

func (v *TxnView) scan(table, lo, hi string, limit int, reverse bool, fn func(k string, val any) bool) int {
	locked := v.locker == nil
	if v.locker != nil {
		if rl, ok := v.locker.(RangeLocker); ok {
			v.LockAcquires++
			rl.LockRange(table, lo, hi)
			locked = true
		}
	}
	t := v.store.Table(table)
	if bt, ok := t.(*BTreeTable); ok {
		sv := scanVisitor{v: v, table: table, fn: fn, limit: limit, locked: locked}
		if reverse {
			bt.Descend(lo, hi, sv.visit)
		} else {
			bt.Ascend(lo, hi, sv.visit)
		}
		if v.Obs != nil {
			v.Obs.ObserveScan(table, lo, hi, reverse, limit, sv.keys, sv.vals)
		}
		return sv.n
	}
	sv := scanVisitor{v: v, table: table, fn: fn, limit: limit, locked: locked}
	if reverse {
		t.Descend(lo, hi, sv.visit)
	} else {
		t.Ascend(lo, hi, sv.visit)
	}
	if v.Obs != nil {
		v.Obs.ObserveScan(table, lo, hi, reverse, limit, sv.keys, sv.vals)
	}
	return sv.n
}
