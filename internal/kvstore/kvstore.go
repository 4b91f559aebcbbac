// Package kvstore is the microbenchmark execution engine of §5.1: "a simple
// key/value store, where keys and values are arbitrary byte strings. One
// transaction is supported, which reads a set of values then updates them."
//
// Values here are integer counters, which keeps transaction effects
// verifiable (every committed transaction increments its keys exactly once)
// while exercising the same code paths; the paper deliberately uses tiny
// values so data transfer time is irrelevant.
package kvstore

import (
	"fmt"
	"slices"
	"strconv"

	"specdb/internal/msg"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// Table is the key/value table name.
const Table = "kv"

// ProcName is the registry name of the read/write procedure.
const ProcName = "kv.readwrite"

// Args invokes the read/write transaction: for each partition, the listed
// keys are read and incremented. TwoRound splits the work into a read round
// and a write round with a coordinator hop between them (§5.4's "general"
// multi-partition transactions). ReadOnly reads the keys without updating
// them — a declared read-only transaction (always single-round), which the
// MVCC engine serves from a snapshot.
type Args struct {
	// Keys lists each partition's keys. Each list is a set — the paper's
	// transaction "reads a set of values then updates them" (§5.1) — and
	// Run relies on it: it writes each key right after reading it, so a key
	// listed twice would read its own increment.
	Keys     map[msg.PartitionID][]string
	TwoRound bool
	ReadOnly bool
	// Scans, when non-empty, makes the invocation a declared read-only
	// range scan (YCSB-E's short-range workload): each listed partition
	// scans its [Lo, Hi) slice of the kv table, summing the counters it
	// visits. Keys is ignored for scan invocations.
	Scans map[msg.PartitionID]ScanArg
}

// ScanArg is one partition's share of a range-scan invocation. Lo and Hi
// bound the scan half-open ([Lo, Hi); empty Hi means "to the end of the
// table") and Limit caps the number of rows visited (0 = unlimited).
type ScanArg struct {
	Lo, Hi string
	Limit  int
}

// work is the per-partition fragment input.
type work struct {
	Keys  []string
	Round int
	// ReadOnly marks round 0 of a two-round transaction (reads only;
	// the writes come back in round 1). The keys are still read with
	// update intent: the writes follow in round 1.
	ReadOnly bool
	// Shared marks a declared read-only transaction's fragment: keys are
	// read with shared access and never written.
	Shared bool
	// Vals carries the round-1 write values for two-round transactions,
	// computed at the coordinator from the round-0 reads.
	Vals []int64
	// Scan marks a range-scan fragment (always Shared): the fragment scans
	// [ScanLo, ScanHi) visiting at most ScanLimit rows, instead of reading
	// Keys.
	Scan           bool
	ScanLo, ScanHi string
	ScanLimit      int
}

// AppendLog appends a deterministic encoding of the fragment input to dst,
// satisfying durable.AppendEncoder so command-log appends on the
// microbenchmark hot path stay allocation-free (keys, round, and any
// round-1 write values, all via append/strconv).
func (w *work) AppendLog(dst []byte) []byte {
	dst = append(dst, "kv r="...)
	dst = strconv.AppendInt(dst, int64(w.Round), 10)
	if w.ReadOnly {
		dst = append(dst, " ro"...)
	}
	if w.Shared {
		dst = append(dst, " s"...)
	}
	if w.Scan {
		dst = append(dst, " scan["...)
		dst = append(dst, w.ScanLo...)
		dst = append(dst, ',')
		dst = append(dst, w.ScanHi...)
		dst = append(dst, ")l="...)
		dst = strconv.AppendInt(dst, int64(w.ScanLimit), 10)
	}
	for i, k := range w.Keys {
		dst = append(dst, ' ')
		dst = append(dst, k...)
		if w.Vals != nil {
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, w.Vals[i], 10)
		}
	}
	return dst
}

// Proc implements the read/write stored procedure.
type Proc struct{}

// Name implements txn.Procedure.
func (Proc) Name() string { return ProcName }

// Plan implements txn.Procedure.
func (Proc) Plan(args any, cat *txn.Catalog) txn.Plan {
	a := args.(*Args)
	if len(a.Scans) > 0 {
		// Declared read-only range scan: one round, no writes. The scanned
		// ranges are declared on the plan so engines can take range coverage
		// before touching rows.
		parts := make([]msg.PartitionID, 0, len(a.Scans))
		for p := range a.Scans {
			parts = append(parts, p)
		}
		slices.Sort(parts)
		w := make(map[msg.PartitionID]any, len(parts))
		ranges := make(map[msg.PartitionID][]msg.KeyRange, len(parts))
		for _, p := range parts {
			s := a.Scans[p]
			w[p] = &work{Round: 0, Shared: true, Scan: true, ScanLo: s.Lo, ScanHi: s.Hi, ScanLimit: s.Limit}
			ranges[p] = []msg.KeyRange{{Table: Table, Lo: s.Lo, Hi: s.Hi}}
		}
		return txn.Plan{Parts: parts, Work: w, Rounds: 1, ReadOnly: true, Scans: ranges}
	}
	parts := make([]msg.PartitionID, 0, len(a.Keys))
	for p := range a.Keys {
		parts = append(parts, p)
	}
	slices.Sort(parts)
	if a.ReadOnly {
		// Declared read-only: one round of shared reads, no writes.
		w := make(map[msg.PartitionID]any, len(parts))
		for _, p := range parts {
			w[p] = &work{Keys: a.Keys[p], Round: 0, Shared: true}
		}
		return txn.Plan{Parts: parts, Work: w, Rounds: 1, ReadOnly: true}
	}
	rounds := 1
	if a.TwoRound {
		rounds = 2
	}
	w := make(map[msg.PartitionID]any, len(parts))
	for _, p := range parts {
		w[p] = &work{Keys: a.Keys[p], Round: 0, ReadOnly: a.TwoRound}
	}
	return txn.Plan{Parts: parts, Work: w, Rounds: rounds}
}

// Continue implements txn.Procedure: round 1 of a two-round transaction
// writes back each key's value + 1, computed from the round-0 reads.
func (Proc) Continue(args any, round int, prior []msg.FragmentResult, cat *txn.Catalog) map[msg.PartitionID]any {
	a := args.(*Args)
	if round != 1 || !a.TwoRound {
		panic(fmt.Sprintf("kvstore: unexpected round %d", round))
	}
	out := make(map[msg.PartitionID]any, len(prior))
	for _, r := range prior {
		reads := r.Output.([]int64)
		keys := a.Keys[r.Partition]
		vals := make([]int64, len(reads))
		for i, v := range reads {
			vals[i] = v + 1
		}
		out[r.Partition] = &work{Keys: keys, Round: 1, Vals: vals}
	}
	return out
}

// Run implements txn.Procedure.
func (Proc) Run(view *storage.TxnView, w any) (any, error) {
	wk := w.(*work)
	if wk.Round == 1 {
		// Write round of a two-round transaction. The keys were read
		// with update intent in round 0, so the X locks are held.
		for i, k := range wk.Keys {
			view.Put(Table, k, wk.Vals[i])
		}
		return int64(len(wk.Keys)), nil
	}
	if wk.Scan {
		// Range scan: visit [ScanLo, ScanHi) in order. The output is the
		// visited-row count — deterministic under serializable execution.
		n := view.Scan(Table, wk.ScanLo, wk.ScanHi, wk.ScanLimit, func(k string, v any) bool {
			return true
		})
		return int64(n), nil
	}
	if wk.Shared {
		// Declared read-only transaction: shared reads, no update intent.
		vals := make([]int64, len(wk.Keys))
		for i, k := range wk.Keys {
			v, ok := view.Get(Table, k)
			if !ok {
				return nil, fmt.Errorf("kvstore: missing key %q", k)
			}
			vals[i] = v.(int64)
		}
		return vals, nil
	}
	// Read with update intent and, in the single-round form, write each key
	// in turn: the write then lands on the row the read just found. The
	// keys are a set, so this is the same as reading them all first.
	vals := make([]int64, len(wk.Keys))
	for i, k := range wk.Keys {
		v, ok := view.GetForUpdate(Table, k)
		if !ok {
			return nil, fmt.Errorf("kvstore: missing key %q", k)
		}
		vals[i] = v.(int64)
		if !wk.ReadOnly {
			view.Put(Table, k, vals[i]+1)
		}
	}
	return vals, nil
}

// Output implements txn.Procedure.
func (Proc) Output(args any, final []msg.FragmentResult) any {
	var total int64
	for _, r := range final {
		switch v := r.Output.(type) {
		case []int64:
			total += int64(len(v))
		case int64:
			total += v
		}
	}
	return total
}
