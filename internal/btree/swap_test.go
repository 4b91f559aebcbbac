package btree

import (
	"runtime"
	"testing"
	"weak"
)

func TestSwap(t *testing.T) {
	tr := New[int]()
	if prev, existed := tr.Swap("b", 1); existed || prev != 0 {
		t.Fatalf("Swap on absent key = %d,%v", prev, existed)
	}
	if prev, existed := tr.Swap("b", 2); !existed || prev != 1 {
		t.Fatalf("Swap on present key = %d,%v, want 1,true", prev, existed)
	}
	if v, ok := tr.Get("b"); !ok || v != 2 {
		t.Fatalf("Get after Swap = %d,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestFingerFollowsSlotMoves reads and replaces one row repeatedly while
// inserts and deletes around it shift its slot, split its leaf and merge it
// away: every access must still see the row's own value.
func TestFingerFollowsSlotMoves(t *testing.T) {
	tr := New[int]()
	const n = 400
	for i := 0; i < n; i += 2 {
		tr.Put(key(i), i)
	}
	const hot = 200
	want := hot
	check := func(step string) {
		t.Helper()
		if v, ok := tr.Get(key(hot)); !ok || v != want {
			t.Fatalf("%s: Get(hot) = %d,%v, want %d", step, v, ok, want)
		}
		if tr.fleaf == nil || tr.fleaf.keys[tr.fslot] != key(hot) {
			t.Fatalf("%s: finger not on the hot row after Get", step)
		}
		want++
		if prev, existed := tr.Swap(key(hot), want); !existed || prev != want-1 {
			t.Fatalf("%s: Swap(hot) = %d,%v, want %d,true", step, prev, existed, want-1)
		}
	}
	check("start")
	// Inserts to the left of the hot row shift its slot and split its leaf.
	for i := 1; i < n; i += 2 {
		tr.Put(key(i), i)
		if tr.fleaf != nil {
			t.Fatalf("insert of %d left the finger set", i)
		}
		check("after insert")
	}
	// Deletes around the hot row shift it back and merge leaves.
	for i := 0; i < n; i++ {
		if i == hot {
			continue
		}
		tr.Delete(key(i))
		if tr.fleaf != nil {
			t.Fatalf("delete of %d left the finger set", i)
		}
		check("after delete")
	}
	// A replace moves nothing, so it keeps the finger.
	tr.Put(key(hot+1), 0)
	tr.Get(key(hot))
	tr.Put(key(hot+1), 1)
	if tr.fleaf == nil {
		t.Fatal("replace of another key dropped the finger")
	}
	if p := tr.Check(); p != "" {
		t.Fatalf("Check: %s", p)
	}
}

// row is a pointer-sized row big enough to stay out of the tiny allocator,
// so a weak pointer to it tracks exactly one object.
type row struct {
	id  int
	pad [3]int
}

// TestNoDeadRowPinned checks that the tree keeps no reference to a value it
// no longer holds: split, remove, borrow and merge all vacate slots, and a
// vacated slot left populated keeps its row (or a whole detached node) alive.
func TestNoDeadRowPinned(t *testing.T) {
	tr := New[*row]()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), &row{id: i})
	}
	dead := make([]weak.Pointer[row], 0, n)
	for i := 0; i < n; i++ {
		old, _ := tr.Get(key(i))
		dead = append(dead, weak.Make(old))
		if i%3 == 0 {
			tr.Delete(key(i))
		} else {
			tr.Put(key(i), &row{id: -i})
		}
	}
	runtime.GC()
	runtime.GC()
	survivors := 0
	for _, w := range dead {
		if w.Value() != nil {
			survivors++
		}
	}
	if survivors > 0 {
		t.Fatalf("%d of %d dead rows survive GC", survivors, n)
	}
	if p := tr.Check(); p != "" {
		t.Fatalf("Check: %s", p)
	}
	runtime.KeepAlive(tr)
}
