package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"specdb/internal/undo"
)

func TestTableKinds(t *testing.T) {
	for _, tbl := range []Table{NewBTreeTable("b"), NewHashTable("h")} {
		t.Run(tbl.Name(), func(t *testing.T) {
			if _, existed := tbl.Put("k1", "v1"); existed {
				t.Fatal("fresh Put reported existing")
			}
			prev, existed := tbl.Put("k1", "v2")
			if !existed || prev != "v1" {
				t.Fatalf("replace Put = %v,%v", prev, existed)
			}
			v, ok := tbl.Get("k1")
			if !ok || v != "v2" {
				t.Fatalf("Get = %v,%v", v, ok)
			}
			prev, existed = tbl.Delete("k1")
			if !existed || prev != "v2" {
				t.Fatalf("Delete = %v,%v", prev, existed)
			}
			if tbl.Len() != 0 {
				t.Fatalf("Len = %d", tbl.Len())
			}
		})
	}
}

func TestHashTableScansSorted(t *testing.T) {
	h := NewHashTable("h")
	for i := 9; i >= 0; i-- {
		h.Put(fmt.Sprintf("k%d", i), i)
	}
	var asc []any
	h.Ascend("k2", "k5", func(k string, v any) bool {
		asc = append(asc, v)
		return true
	})
	if len(asc) != 3 || asc[0] != 2 || asc[2] != 4 {
		t.Fatalf("Ascend = %v", asc)
	}
	var desc []any
	h.Descend("", "", func(k string, v any) bool {
		desc = append(desc, v)
		return len(desc) < 2
	})
	if len(desc) != 2 || desc[0] != 9 || desc[1] != 8 {
		t.Fatalf("Descend = %v", desc)
	}
}

func TestStoreDuplicateTablePanics(t *testing.T) {
	s := NewStore()
	s.AddTable(NewHashTable("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddTable(NewBTreeTable("x"))
}

func TestStoreUnknownTablePanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Table("nope")
}

func newTestStore() *Store {
	s := NewStore()
	s.AddTable(NewBTreeTable("t"))
	return s
}

func TestTxnViewUndoRestoresExactState(t *testing.T) {
	s := newTestStore()
	base := NewTxnView(s, nil, nil)
	base.Put("t", "a", 1)
	base.Put("t", "b", 2)
	before := s.Fingerprint()

	buf := undo.New()
	v := NewTxnView(s, buf, nil)
	v.Put("t", "a", 100)    // update
	v.Put("t", "c", 3)      // insert
	v.Delete("t", "b")      // delete
	v.Put("t", "c", 30)     // update the inserted row
	v.Delete("t", "nosuch") // no-op delete
	if s.Fingerprint() == before {
		t.Fatal("mutations had no effect")
	}
	buf.Rollback()
	if got := s.Fingerprint(); got != before {
		t.Fatalf("rollback did not restore state: %d != %d", got, before)
	}
	if v2, ok := s.Table("t").Get("a"); !ok || v2 != 1 {
		t.Fatalf("a = %v,%v", v2, ok)
	}
	if _, ok := s.Table("t").Get("c"); ok {
		t.Fatal("c still present after rollback")
	}
}

func TestTxnViewDiscardKeepsChanges(t *testing.T) {
	s := newTestStore()
	buf := undo.New()
	v := NewTxnView(s, buf, nil)
	v.Put("t", "a", 1)
	buf.Discard()
	buf.Rollback() // must be a no-op now
	if _, ok := s.Table("t").Get("a"); !ok {
		t.Fatal("committed row lost")
	}
}

// TestQuickUndoIdentity: any random mutation sequence followed by rollback
// leaves the store exactly as it began.
func TestQuickUndoIdentity(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newTestStore()
		init := NewTxnView(s, nil, nil)
		for i := 0; i < 20; i++ {
			init.Put("t", fmt.Sprintf("k%d", i), rng.Intn(100))
		}
		before := s.Fingerprint()
		buf := undo.New()
		v := NewTxnView(s, buf, nil)
		for _, op := range ops {
			k := fmt.Sprintf("k%d", int(op)%30)
			switch int(op) % 3 {
			case 0:
				v.Put("t", k, rng.Intn(1000))
			case 1:
				v.Delete("t", k)
			case 2:
				v.Get("t", k)
			}
		}
		buf.Rollback()
		return s.Fingerprint() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

type recordingLocker struct {
	calls []string
}

func (r *recordingLocker) Lock(table, key string, exclusive bool) {
	mode := "S"
	if exclusive {
		mode = "X"
	}
	r.calls = append(r.calls, table+"/"+key+"/"+mode)
}

func TestTxnViewLockChokePoint(t *testing.T) {
	s := newTestStore()
	NewTxnView(s, nil, nil).Put("t", "a", 1)
	rl := &recordingLocker{}
	v := NewTxnView(s, nil, rl)
	v.Get("t", "a")
	v.Put("t", "b", 2)
	v.Delete("t", "a")
	v.Ascend("t", "", "", func(k string, val any) bool { return true })
	v.GetForUpdate("t", "b")
	want := []string{"t/a/S", "t/b/X", "t/a/X", "t/b/S", "t/b/X"}
	if len(rl.calls) != len(want) {
		t.Fatalf("lock calls = %v", rl.calls)
	}
	for i, w := range want {
		if rl.calls[i] != w {
			t.Fatalf("lock call %d = %q, want %q", i, rl.calls[i], w)
		}
	}
	if v.LockAcquires != 5 || v.Reads != 3 || v.Writes != 2 {
		t.Fatalf("counters = %d/%d/%d", v.LockAcquires, v.Reads, v.Writes)
	}
}

func TestTxnViewScans(t *testing.T) {
	s := newTestStore()
	v := NewTxnView(s, nil, nil)
	for i := 0; i < 10; i++ {
		v.Put("t", Key(KeyUint32(uint32(i))), i)
	}
	var asc, desc []int
	v.Ascend("t", KeyUint32(3), KeyUint32(7), func(k string, val any) bool {
		asc = append(asc, val.(int))
		return true
	})
	v.Descend("t", KeyUint32(3), KeyUint32(7), func(k string, val any) bool {
		desc = append(desc, val.(int))
		return true
	})
	if len(asc) != 4 || asc[0] != 3 || asc[3] != 6 {
		t.Fatalf("asc = %v", asc)
	}
	if len(desc) != 4 || desc[0] != 6 || desc[3] != 3 {
		t.Fatalf("desc = %v", desc)
	}
}

func TestKeyEncodingOrder(t *testing.T) {
	if KeyUint32(1) >= KeyUint32(2) {
		t.Fatal("uint32 order broken")
	}
	if KeyUint32(255) >= KeyUint32(256) {
		t.Fatal("uint32 byte boundary order broken")
	}
	if KeyUint64(1<<40) >= KeyUint64(1<<40+1) {
		t.Fatal("uint64 order broken")
	}
	if KeyInt32(-5) >= KeyInt32(3) {
		t.Fatal("int32 sign order broken")
	}
	if KeyInt32(-5) >= KeyInt32(-4) {
		t.Fatal("int32 negative order broken")
	}
	comp1 := Key(KeyUint32(1), KeyUint32(999))
	comp2 := Key(KeyUint32(2), KeyUint32(0))
	if comp1 >= comp2 {
		t.Fatal("composite order broken")
	}
}

func TestPrefixEnd(t *testing.T) {
	p := Key(KeyUint32(7))
	end := PrefixEnd(p)
	inside := Key(KeyUint32(7), KeyUint32(4000000000))
	if !(inside >= p && inside < end) {
		t.Fatal("prefix range does not contain member")
	}
	outside := Key(KeyUint32(8))
	if outside < end {
		t.Fatal("prefix range contains non-member")
	}
	if PrefixEnd("\xff\xff") != "" {
		t.Fatal("all-0xff prefix should be unbounded")
	}
	if PrefixEnd("a\xff") != "b" {
		t.Fatalf("PrefixEnd(a\\xff) = %q", PrefixEnd("a\xff"))
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s1, s2 := newTestStore(), newTestStore()
	NewTxnView(s1, nil, nil).Put("t", "a", 1)
	NewTxnView(s2, nil, nil).Put("t", "a", 2)
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("fingerprint blind to value change")
	}
	NewTxnView(s2, nil, nil).Put("t", "a", 1)
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("equal stores have different fingerprints")
	}
}

func TestUndoFuncAdapter(t *testing.T) {
	n := 0
	b := undo.New()
	b.Record(undo.Entry{Target: undo.Func(func() { n++ })})
	b.Record(undo.Entry{Target: undo.Func(func() { n += 10 })})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Rollback()
	if n != 11 {
		t.Fatalf("n = %d", n)
	}
	b.Rollback() // idempotent after clear
	if n != 11 {
		t.Fatalf("n = %d after second rollback", n)
	}
}

// TestTxnViewResetForgetsTable: a view memoizes the table it last resolved;
// Reset onto another store must drop that memo, so every access — reads,
// writes, scans — reaches the new store's table of the same name, and a name
// the new store lacks panics instead of reaching the old store.
func TestTxnViewResetForgetsTable(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.AddTable(NewBTreeTable("kv"))
	b.AddTable(NewHashTable("kv"))
	a.Table("kv").Put("k", 1)
	b.Table("kv").Put("k", 2)

	var v TxnView
	v.Reset(a, nil, nil)
	if got, _ := v.Get("kv", "k"); got != 1 {
		t.Fatalf("store a: Get = %v, want 1", got)
	}
	v.Reset(b, nil, nil)
	if got, _ := v.Get("kv", "k"); got != 2 {
		t.Fatalf("store b after Reset: Get = %v, want 2", got)
	}
	v.Put("kv", "k", 3)
	v.Scan("kv", "", "", 0, func(_ string, val any) bool {
		if val != 3 {
			t.Fatalf("store b scan saw %v, want 3", val)
		}
		return true
	})
	if got, _ := a.Table("kv").Get("k"); got != 1 {
		t.Fatalf("write through the reset view reached store a: %v", got)
	}

	c := NewStore()
	c.AddTable(NewHashTable("other"))
	v.Reset(c, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Get of a table the new store lacks did not panic")
		}
	}()
	v.Get("kv", "k")
}
