package oracle

import (
	"strings"
	"testing"

	"specdb/internal/storage"
)

func kvStore(rows map[string]int) *storage.Store {
	s := storage.NewStore()
	t := storage.NewBTreeTable("kv")
	for k, v := range rows {
		t.Put(k, v)
	}
	s.AddTable(t)
	return s
}

// A fragment that is unwound to wait for a lock records again when it is
// re-run: Truncate must cut the open record back to exactly the rows the
// transaction's earlier fragments left, whether or not there were any.
func TestMarkTruncateDropUnwoundFragment(t *testing.T) {
	h := NewPartitionHistory()
	if m := h.Mark(1); m != 0 {
		t.Fatalf("Mark of an unseen transaction = %d", m)
	}
	h.Truncate(1, 0) // nothing recorded yet: a no-op, not a panic

	// Round 0 of txn 1 completes.
	obs := h.Observer(1)
	obs.ObserveGet("kv", "x", 5, true)
	obs.ObservePut("kv", "x", 6)
	mark := h.Mark(1)
	if mark != 2 {
		t.Fatalf("Mark after two rows = %d", mark)
	}
	// Round 1 reads y, writes z, and is unwound at its next lock request.
	obs.ObserveGet("kv", "y", 1, true)
	obs.ObservePut("kv", "z", 9)
	obs.ObserveScan("kv", "a", "m", false, 0, []string{"b"}, []any{2})
	h.Truncate(1, mark)
	if rows := h.open[1].Rows; len(rows) != 2 || rows[0].Op != OpRead || rows[1].Op != OpWrite || rows[1].Val != 6 {
		t.Fatalf("rows after Truncate = %+v", rows)
	}
	// Another transaction's record is not touched by txn 1's unwinding.
	h.Observer(2).ObservePut("kv", "w", 1)
	h.Truncate(1, mark)
	if len(h.open[2].Rows) != 1 {
		t.Fatalf("txn 2 rows = %+v", h.open[2].Rows)
	}
	h.Drop(2)

	// The re-run sees a y that changed while it waited; with the unwound
	// rows gone the history is the serial one.
	h.Observer(3).ObservePut("kv", "y", 2)
	h.Commit(3)
	obs.ObserveGet("kv", "y", 2, true)
	obs.ObservePut("kv", "z", 10)
	h.Commit(1)
	initial := kvStore(map[string]int{"x": 5, "y": 1})
	final := kvStore(map[string]int{"x": 6, "y": 2, "z": 10})
	if err := h.Verify(initial, final); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// Negative control: two transactions both read x=0 and both write 1. No
// serial order shows the second one the value it read, and Verify says so.
func TestVerifyRejectsLostUpdate(t *testing.T) {
	h := NewPartitionHistory()
	a, b := h.Observer(1), h.Observer(2)
	a.ObserveGet("kv", "x", 0, true)
	b.ObserveGet("kv", "x", 0, true)
	a.ObservePut("kv", "x", 1)
	b.ObservePut("kv", "x", 1)
	h.Commit(1)
	h.Commit(2)
	err := h.Verify(kvStore(map[string]int{"x": 0}), kvStore(map[string]int{"x": 1}))
	if err == nil || !strings.Contains(err.Error(), "txn 2") {
		t.Fatalf("Verify = %v, want a stale read reported for txn 2", err)
	}
	// The same accesses one after the other are serial.
	h = NewPartitionHistory()
	a, b = h.Observer(1), h.Observer(2)
	a.ObserveGet("kv", "x", 0, true)
	a.ObservePut("kv", "x", 1)
	h.Commit(1)
	b.ObserveGet("kv", "x", 1, true)
	b.ObservePut("kv", "x", 2)
	h.Commit(2)
	if err := h.Verify(kvStore(map[string]int{"x": 0}), kvStore(map[string]int{"x": 2})); err != nil {
		t.Fatalf("serial history rejected: %v", err)
	}
}
