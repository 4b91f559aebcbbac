package btree

import (
	"sort"
	"testing"
)

// FuzzBTree drives a Tree through a byte-coded op stream — Put (Swap on even
// op indices), Delete, Ascend, Descend over a small key universe — against a
// map-plus-sort reference model, asserting the structural invariants (Check)
// after every mutation and exact agreement on every lookup and traversal.
// Every op is followed by a Get of its key and of the next key, which reads
// through the finger the op left behind, or sets a new one. The small
// universe (64 keys) forces heavy node splitting/merging churn at degree 32:
// the same key is inserted and deleted many times, which is where rebalance
// bugs live.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xC3, 0x04, 0x45, 0x86, 0xC7})
	f.Add([]byte{0xFF, 0xFE, 0xFD, 0x00, 0x01, 0x02, 0x80, 0x81, 0x82})
	// Fails if a Delete keeps the finger: the delete empties the finger's
	// leaf, and Check finds the finger's slot past the leaf's end.
	f.Add([]byte{0x01, 0x41, 0x30, 0x30})
	// Fails if an insert keeps the finger: the 32nd insert splits the
	// finger's leaf, and Check finds the finger's slot past the half the
	// leaf kept.
	f.Add([]byte{0x30, 0x31, 0x37, 0x38, 0x20, 0x22, 0x23, 0x26, 0x27, 0x25, 0x29,
		0x2A, 0x2C, 0x2E, 0x0C, 0x13, 0x1A, 0x21, 0x28, 0x2F, 0x36, 0x3D, 0x01, 0x08,
		0x0F, 0x16, 0x1D, 0x24, 0x2B, 0x32, 0x39, 0x3C, 0x30})
	big := make([]byte, 512)
	for i := range big {
		big[i] = byte(i*7 + 3)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New[int]()
		ref := make(map[string]int)

		// sortedRef returns the reference keys in [lo, hi) order.
		sortedRef := func(lo, hi string) []string {
			var ks []string
			for k := range ref {
				if k >= lo && (hi == "" || k < hi) {
					ks = append(ks, k)
				}
			}
			sort.Strings(ks)
			return ks
		}

		for i, op := range ops {
			k := key(int(op & 0x3F)) // 64-key universe
			switch op >> 6 {
			case 0: // Put, or Swap on even op indices
				rv, rok := ref[k]
				if i%2 == 0 {
					prev, existed := tr.Swap(k, i)
					if existed != rok || prev != rv {
						t.Fatalf("op %d: Swap(%q) = %d,%v, ref %d,%v", i, k, prev, existed, rv, rok)
					}
				} else if created := tr.Put(k, i); created == rok {
					t.Fatalf("op %d: Put(%q) created=%v, ref existed=%v", i, k, created, rok)
				}
				ref[k] = i
			case 1: // Delete
				v, ok := tr.Delete(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("op %d: Delete(%q) = %d,%v, ref %d,%v", i, k, v, ok, rv, rok)
				}
				delete(ref, k)
			case 2: // Ascend over [k, k+16)
				hi := ""
				if b := int(op&0x3F) + 16; b < 64 {
					hi = key(b)
				}
				want := sortedRef(k, hi)
				j := 0
				tr.Ascend(k, hi, func(gk string, gv int) bool {
					if j >= len(want) || gk != want[j] || gv != ref[gk] {
						t.Fatalf("op %d: Ascend[%q,%q) position %d: got %q, want %v", i, k, hi, j, gk, want)
					}
					j++
					return true
				})
				if j != len(want) {
					t.Fatalf("op %d: Ascend[%q,%q) visited %d keys, want %d", i, k, hi, j, len(want))
				}
			default: // Descend over [k, k+16)
				hi := ""
				if b := int(op&0x3F) + 16; b < 64 {
					hi = key(b)
				}
				want := sortedRef(k, hi)
				j := len(want) - 1
				tr.Descend(k, hi, func(gk string, gv int) bool {
					if j < 0 || gk != want[j] || gv != ref[gk] {
						t.Fatalf("op %d: Descend[%q,%q) got %q at reverse position %d, want %v", i, k, hi, gk, j, want)
					}
					j--
					return true
				})
				if j != -1 {
					t.Fatalf("op %d: Descend[%q,%q) left %d keys unvisited", i, k, hi, j+1)
				}
			}
			if p := tr.Check(); p != "" {
				t.Fatalf("op %d (%#x): invariant violated: %s", i, op, p)
			}
			for _, gk := range []string{k, key(int(op+1) & 0x3F)} {
				gv, gok := tr.Get(gk)
				rv, rok := ref[gk]
				if gok != rok || gv != rv {
					t.Fatalf("op %d: Get(%q) = %d,%v, ref %d,%v", i, gk, gv, gok, rv, rok)
				}
			}
			if tr.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, ref %d", i, tr.Len(), len(ref))
			}
		}
		// Final full-traversal agreement.
		want := sortedRef("", "")
		var got []string
		tr.Ascend("", "", func(k string, _ int) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			t.Fatalf("final Ascend: %d keys, ref %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("final Ascend position %d: %q, ref %q", i, got[i], want[i])
			}
		}
	})
}
