package locks

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specdb/internal/msg"
)

// TestDifferentialAgainstReference drives the manager and the map-based
// reference (ref_test.go) with the same random requests — a handful of
// transactions over a handful of keys, so nearly every request conflicts —
// and compares every answer: immediate-or-queued, the grants of every release
// in order, the waits-for edges, the cycle found at block time, and the
// counters. Point-only streams pin the path that skips sorting; streams with
// range keys pin the overlap rule and the global drain.
func TestDifferentialAgainstReference(t *testing.T) {
	points := []Key{}
	for _, tbl := range []string{"t", "u"} {
		for _, row := range []string{"a", "b", "c", "d", "e", "f"} {
			points = append(points, Key{Table: tbl, Row: row})
		}
	}
	ranges := []Key{
		{Table: "t", Row: "a", Hi: "d", IsRange: true},
		{Table: "t", Row: "c", Hi: "", IsRange: true},
		{Table: "t", Row: "b", Hi: "c", IsRange: true},
		{Table: "u", Row: "", Hi: "", IsRange: true},
		{Table: "u", Row: "d", Hi: "f", IsRange: true},
	}
	const txns = 6
	for _, withRanges := range []bool{false, true} {
		for seed := int64(1); seed <= 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewManager(), newRefManager()
			where := func(step int) string {
				return fmt.Sprintf("ranges=%v seed=%d step=%d", withRanges, seed, step)
			}
			for step := 0; step < 400; step++ {
				txn := msg.TxnID(1 + rng.Intn(txns))
				if want.Waiting(txn) || rng.Intn(5) == 0 {
					g, w := got.Release(txn), want.Release(txn)
					if !slices.Equal(g, w) {
						t.Fatalf("%s: Release(%d) grants %v, reference %v", where(step), txn, g, w)
					}
				} else {
					k := points[rng.Intn(len(points))]
					mode := Mode(rng.Intn(2))
					if withRanges && rng.Intn(4) == 0 {
						k, mode = ranges[rng.Intn(len(ranges))], Shared
					}
					g, w := got.Acquire(txn, k, mode), want.Acquire(txn, k, mode)
					if g != w {
						t.Fatalf("%s: Acquire(%d, %v, %v) = %v, reference %v", where(step), txn, k, mode, g, w)
					}
					if !g {
						if gc, wc := got.FindCycle(txn), want.FindCycle(txn); !slices.Equal(gc, wc) {
							t.Fatalf("%s: FindCycle(%d) = %v, reference %v", where(step), txn, gc, wc)
						}
					}
					if got.Holds(txn, k, mode) != want.Holds(txn, k, mode) {
						t.Fatalf("%s: Holds(%d, %v, %v) differs", where(step), txn, k, mode)
					}
				}
				for id := msg.TxnID(1); id <= txns; id++ {
					if got.Waiting(id) != want.Waiting(id) || got.HeldCount(id) != want.HeldCount(id) {
						t.Fatalf("%s: txn %d waiting %v held %d, reference %v %d", where(step), id,
							got.Waiting(id), got.HeldCount(id), want.Waiting(id), want.HeldCount(id))
					}
					if g, w := got.WaitsFor(id), want.WaitsFor(id); !slices.Equal(g, w) {
						t.Fatalf("%s: WaitsFor(%d) = %v, reference %v", where(step), id, g, w)
					}
				}
				if got.Stats() != want.Stats() || got.Active() != want.Active() {
					t.Fatalf("%s: stats %+v active %v, reference %+v %v", where(step),
						got.Stats(), got.Active(), want.Stats(), want.Active())
				}
			}
		}
	}
}
