// Package undo implements the in-memory undo buffers of §3.2: a log of
// before-images that is discarded on commit and replayed in reverse on abort.
// Transactions that cannot abort are executed without a buffer at all — that
// is the "very low overhead" fast path the paper measures as tsp vs tspS.
package undo

// Restorer reinstates one captured before-image. Implementations live next
// to the state they restore (internal/storage tables implement it for row
// images).
type Restorer interface {
	// Restore puts back the captured state: the previous value when the key
	// existed, or removal when it did not.
	Restore(key string, prev any, existed bool)
}

// Entry is one undoable effect, held by value: recording appends to the
// buffer's slice instead of allocating a per-entry object. Undo recording
// sits on the per-write hot path of every transaction that can abort, so
// this is a measured allocs/txn matter, not a style one.
type Entry struct {
	Target  Restorer
	Key     string
	Prev    any
	Existed bool
}

// Buffer accumulates entries for one transaction. Buffers are reusable:
// Rollback and Discard clear the log but keep its capacity, so a pooled
// buffer's steady state records without growing.
type Buffer struct {
	entries []Entry
}

// New returns an empty buffer.
func New() *Buffer { return &Buffer{} }

// Record appends an entry. Entries must be recorded before the corresponding
// mutation's before-state is lost.
func (b *Buffer) Record(e Entry) {
	b.entries = append(b.entries, e)
}

// Len returns the number of recorded entries.
func (b *Buffer) Len() int { return len(b.entries) }

// Rollback undoes all entries in reverse order and clears the buffer.
func (b *Buffer) Rollback() { b.RollbackTo(0) }

// RollbackTo undoes every entry recorded after the first n, newest first, and
// drops them; the first n stay recorded. With n taken from Len at the start of
// a fragment it is a savepoint: the locking engine unwinds a fragment that has
// to wait for a lock this way, keeping the writes of the transaction's earlier
// rounds.
func (b *Buffer) RollbackTo(n int) {
	for i := len(b.entries) - 1; i >= n; i-- {
		e := &b.entries[i]
		e.Target.Restore(e.Key, e.Prev, e.Existed)
	}
	b.truncate(n)
}

// Discard drops all entries without applying them (commit path).
func (b *Buffer) Discard() { b.truncate(0) }

// truncate keeps the first n entries, zeroing the dropped slots so retained
// capacity does not pin old row values against the garbage collector.
func (b *Buffer) truncate(n int) {
	clear(b.entries[n:])
	b.entries = b.entries[:n]
}

// Func adapts a closure to Restorer, for callers with one-off restoration
// logic; the captured entry fields are ignored.
type Func func()

// Restore calls the closure.
func (f Func) Restore(string, any, bool) { f() }
