package undo

import (
	"slices"
	"testing"
)

type probe struct {
	log *[]int
	id  int
}

func (p probe) Restore(string, any, bool) { *p.log = append(*p.log, p.id) }

func TestRollbackReverseOrder(t *testing.T) {
	var log []int
	b := New()
	for i := 1; i <= 4; i++ {
		b.Record(Entry{Target: probe{&log, i}})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Rollback()
	want := []int{4, 3, 2, 1}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("rollback order = %v", log)
		}
	}
	if b.Len() != 0 {
		t.Fatal("buffer not cleared")
	}
}

func TestRollbackIdempotentAfterClear(t *testing.T) {
	var log []int
	b := New()
	b.Record(Entry{Target: probe{&log, 1}})
	b.Rollback()
	b.Rollback()
	if len(log) != 1 {
		t.Fatalf("entries re-applied: %v", log)
	}
}

func TestDiscardDropsWithoutApplying(t *testing.T) {
	var log []int
	b := New()
	b.Record(Entry{Target: probe{&log, 1}})
	b.Discard()
	if len(log) != 0 || b.Len() != 0 {
		t.Fatalf("discard applied entries: %v", log)
	}
	// Buffer is reusable after Discard.
	b.Record(Entry{Target: probe{&log, 2}})
	b.Rollback()
	if len(log) != 1 || log[0] != 2 {
		t.Fatalf("reuse failed: %v", log)
	}
}

func TestFuncEntry(t *testing.T) {
	n := 0
	b := New()
	b.Record(Entry{Target: Func(func() { n = 7 })})
	b.Rollback()
	if n != 7 {
		t.Fatal("Func entry not applied")
	}
}

// TestResetReleasesReferences pins the buffer-reuse contract: clearing the
// log must zero the retained slots (so pooled buffers do not pin old row
// values) while keeping capacity (so steady-state recording does not grow).
func TestResetReleasesReferences(t *testing.T) {
	b := New()
	for i := 0; i < 8; i++ {
		b.Record(Entry{Target: Func(func() {}), Key: "k", Prev: i})
	}
	b.Discard()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Discard", b.Len())
	}
	for i, e := range b.entries[:cap(b.entries)] {
		if e != (Entry{}) {
			t.Fatalf("slot %d not zeroed: %+v", i, e)
		}
	}
}

// TestRollbackToSavepoint pins the savepoint contract the locking engine's
// unwind-and-re-run relies on: entries past the mark are restored newest
// first and their slots zeroed, the first n stay recorded for a later full
// rollback, and a mark at the current length is a no-op.
func TestRollbackToSavepoint(t *testing.T) {
	var log []int
	b := New()
	for i := 1; i <= 5; i++ {
		b.Record(Entry{Target: probe{&log, i}, Key: "k", Prev: i})
	}
	b.RollbackTo(5)
	if len(log) != 0 || b.Len() != 5 {
		t.Fatalf("RollbackTo(Len) restored %v, Len = %d", log, b.Len())
	}
	b.RollbackTo(2)
	if want := []int{5, 4, 3}; !slices.Equal(log, want) {
		t.Fatalf("restored %v, want %v", log, want)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	for i, e := range b.entries[2:cap(b.entries)] {
		if e != (Entry{}) {
			t.Fatalf("dropped slot %d not zeroed: %+v", i+2, e)
		}
	}
	// The kept prefix is still live: recording continues after it and a full
	// rollback undoes both.
	b.Record(Entry{Target: probe{&log, 6}})
	log = log[:0]
	b.Rollback()
	if want := []int{6, 2, 1}; !slices.Equal(log, want) {
		t.Fatalf("full rollback restored %v, want %v", log, want)
	}
}
