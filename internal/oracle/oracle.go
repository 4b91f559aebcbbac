// Package oracle is the serializability test harness: it records, per
// partition, the value trace of every committed transaction — each row read
// (with the value seen) and each row written (with the value installed), in
// program order — together with the partition's commit order, and verifies
// offline that the history is equivalent to a serial execution.
//
// The check replays the committed transactions in commit order against a
// clone of the initial store: every recorded read must see exactly the value
// the replay store holds at that point (a mismatch means the transaction
// observed state that no serial execution in commit order could have shown
// it — a serializability violation, e.g. a dirty read of a later-aborted
// write), and after the full replay the store must equal the partition's
// actual final store. Together the two checks catch lost updates, dirty
// reads, non-repeatable reads and phantom values without re-executing any
// procedure logic, so the oracle is independent of the engines it audits.
//
// Every engine in this repository serializes committed transactions in
// partition commit order, with one deliberate exception: a declared
// read-only transaction under MVCC serializes at its snapshot point (its
// arrival), which may precede writers that committed before the reader's
// 2PC decision arrived. The partition pins such transactions to a sequence
// number at first execution (Pin) so the replay inserts them where their
// snapshot lives.
//
// Recording hooks into storage.TxnView's Observer seam and is enabled by a
// test-only configuration flag; production runs never construct a history.
package oracle

import (
	"fmt"
	"sort"

	"specdb/internal/msg"
	"specdb/internal/storage"
)

// Op is a row access kind.
type Op uint8

// Row access kinds.
const (
	OpRead Op = iota
	OpWrite
	OpDelete
	// OpScan records a completed range scan: bounds and limit in the scan
	// fields, plus the exact key/value sequence the transaction saw.
	// Point-read replay cannot catch phantoms — a row that was absent is
	// never observed — so Verify re-executes the scan against the replay
	// store and compares the full sequences.
	OpScan
)

// Row is one observed row access.
type Row struct {
	Op         Op
	Table, Key string
	// Val is the value read (OpRead, when Existed) or written (OpWrite).
	Val any
	// Existed reports whether a read found the row.
	Existed bool
	// ScanHi, ScanReverse and ScanLimit are the scan's declared bounds
	// (OpScan only; Key doubles as the low bound). ScanKeys/ScanVals are
	// the observed result sequence, in visit order.
	ScanHi      string
	ScanReverse bool
	ScanLimit   int
	ScanKeys    []string
	ScanVals    []any
}

// TxnRecord is one transaction's value trace on one partition.
type TxnRecord struct {
	Txn msg.TxnID
	// Seq is the transaction's position in the partition's serial order:
	// assigned at commit, or at first execution for pinned snapshot
	// readers.
	Seq  uint64
	Rows []Row
}

// PartitionHistory accumulates one partition's transaction traces. It is
// single-threaded, like the partition that feeds it.
type PartitionHistory struct {
	open      map[msg.TxnID]*TxnRecord
	committed []*TxnRecord
	nextSeq   uint64
	pinned    map[msg.TxnID]bool
}

// NewPartitionHistory returns an empty history.
func NewPartitionHistory() *PartitionHistory {
	return &PartitionHistory{
		open:   make(map[msg.TxnID]*TxnRecord),
		pinned: make(map[msg.TxnID]bool),
	}
}

// Observer returns a storage.Observer that appends txn's accesses to its
// open record.
func (h *PartitionHistory) Observer(txn msg.TxnID) storage.Observer {
	return recorder{h: h, txn: txn}
}

// rec returns txn's open record, creating it on first touch.
func (h *PartitionHistory) rec(txn msg.TxnID) *TxnRecord {
	r := h.open[txn]
	if r == nil {
		r = &TxnRecord{Txn: txn}
		h.open[txn] = r
	}
	return r
}

// Pin assigns txn its serial position now instead of at commit — used for
// MVCC's declared read-only transactions, which serialize at their snapshot
// point even though their 2PC decision (and thus Commit) arrives later.
// Pinning is idempotent.
func (h *PartitionHistory) Pin(txn msg.TxnID) {
	if h.pinned[txn] {
		return
	}
	h.pinned[txn] = true
	h.nextSeq++
	h.rec(txn).Seq = h.nextSeq
}

// Commit seals txn's record into the committed history at the next serial
// position (or its pinned position). A commit for a transaction with no open
// record is ignored — it performed no data access on this partition.
func (h *PartitionHistory) Commit(txn msg.TxnID) {
	r := h.open[txn]
	if r == nil {
		delete(h.pinned, txn)
		return
	}
	delete(h.open, txn)
	if h.pinned[txn] {
		delete(h.pinned, txn)
	} else {
		h.nextSeq++
		r.Seq = h.nextSeq
	}
	h.committed = append(h.committed, r)
}

// RecordMigrationOut seals a synthetic record at the next serial position
// for an outbound key-range migration: every surrendered row becomes an
// OpDelete. Migrations happen only at drained quiescent points, so "next
// serial position" is exact — no transaction is open. Without these records
// the replay store would diverge from the partition's final store after a
// migration, and Verify would report a false violation.
func (h *PartitionHistory) RecordMigrationOut(rows []msg.MigRow) {
	rec := &TxnRecord{Txn: msg.NoTxn}
	for _, r := range rows {
		rec.Rows = append(rec.Rows, Row{Op: OpDelete, Table: r.Table, Key: r.Key})
	}
	h.nextSeq++
	rec.Seq = h.nextSeq
	h.committed = append(h.committed, rec)
}

// RecordMigrationIn seals a synthetic record for an inbound migration: every
// adopted row becomes an OpWrite installing the migrated value.
func (h *PartitionHistory) RecordMigrationIn(rows []msg.MigRow) {
	rec := &TxnRecord{Txn: msg.NoTxn}
	for _, r := range rows {
		rec.Rows = append(rec.Rows, Row{Op: OpWrite, Table: r.Table, Key: r.Key, Val: r.Val, Existed: true})
	}
	h.nextSeq++
	rec.Seq = h.nextSeq
	h.committed = append(h.committed, rec)
}

// Drop discards txn's open record: it aborted, or was rolled back for
// re-execution (the re-execution re-records from scratch).
func (h *PartitionHistory) Drop(txn msg.TxnID) {
	delete(h.open, txn)
	delete(h.pinned, txn)
}

// Mark returns the length of txn's open record, for Truncate. The partition
// takes it where a lock-acquiring fragment starts.
func (h *PartitionHistory) Mark(txn msg.TxnID) int {
	if r := h.open[txn]; r != nil {
		return len(r.Rows)
	}
	return 0
}

// Truncate cuts txn's open record back to mark: the fragment that recorded
// the rest was unwound to wait for a lock and will record again when it is
// re-run. Rows of the transaction's earlier fragments stay.
func (h *PartitionHistory) Truncate(txn msg.TxnID, mark int) {
	if r := h.open[txn]; r != nil {
		clear(r.Rows[mark:])
		r.Rows = r.Rows[:mark]
	}
}

// Committed returns the sealed records in serial order.
func (h *PartitionHistory) Committed() []*TxnRecord {
	out := append([]*TxnRecord(nil), h.committed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of committed records.
func (h *PartitionHistory) Len() int { return len(h.committed) }

// recorder adapts a PartitionHistory to storage.Observer for one txn.
type recorder struct {
	h   *PartitionHistory
	txn msg.TxnID
}

// ObserveGet implements storage.Observer.
func (r recorder) ObserveGet(table, key string, val any, ok bool) {
	rec := r.h.rec(r.txn)
	rec.Rows = append(rec.Rows, Row{Op: OpRead, Table: table, Key: key, Val: val, Existed: ok})
}

// ObservePut implements storage.Observer.
func (r recorder) ObservePut(table, key string, val any) {
	rec := r.h.rec(r.txn)
	rec.Rows = append(rec.Rows, Row{Op: OpWrite, Table: table, Key: key, Val: val, Existed: true})
}

// ObserveDelete implements storage.Observer.
func (r recorder) ObserveDelete(table, key string) {
	rec := r.h.rec(r.txn)
	rec.Rows = append(rec.Rows, Row{Op: OpDelete, Table: table, Key: key})
}

// ObserveScan implements storage.Observer.
func (r recorder) ObserveScan(table, lo, hi string, reverse bool, limit int, keys []string, vals []any) {
	rec := r.h.rec(r.txn)
	rec.Rows = append(rec.Rows, Row{
		Op: OpScan, Table: table, Key: lo,
		ScanHi: hi, ScanReverse: reverse, ScanLimit: limit,
		ScanKeys: append([]string(nil), keys...),
		ScanVals: append([]any(nil), vals...),
	})
}

// Verify replays the committed history serially against a clone of initial
// and checks both that every recorded read saw exactly the serial state and
// that the replayed store equals final. A non-nil error pinpoints the first
// divergence: the partition's execution was not equivalent to the serial
// order its commits claim.
//
// Values are compared by their fmt representation, the same discipline as
// storage.DiffStores and Store.Fingerprint (safe under the copy-on-write row
// discipline: observed values are never mutated in place).
func (h *PartitionHistory) Verify(initial, final *storage.Store) error {
	replay := initial.Clone()
	for _, rec := range h.Committed() {
		for i, row := range rec.Rows {
			tbl := replay.Table(row.Table)
			switch row.Op {
			case OpRead:
				cur, ok := tbl.Get(row.Key)
				if ok != row.Existed {
					return fmt.Errorf("oracle: txn %d (seq %d) row %d: read %s/%q existed=%v, serial replay has existed=%v",
						rec.Txn, rec.Seq, i, row.Table, row.Key, row.Existed, ok)
				}
				if ok && fmt.Sprintf("%v", cur) != fmt.Sprintf("%v", row.Val) {
					return fmt.Errorf("oracle: txn %d (seq %d) row %d: read %s/%q saw %v, serial replay has %v",
						rec.Txn, rec.Seq, i, row.Table, row.Key, row.Val, cur)
				}
			case OpWrite:
				tbl.Put(row.Key, row.Val)
			case OpDelete:
				tbl.Delete(row.Key)
			case OpScan:
				var gotKeys []string
				var gotVals []any
				n := 0
				visit := func(k string, v any) bool {
					gotKeys = append(gotKeys, k)
					gotVals = append(gotVals, v)
					n++
					return row.ScanLimit <= 0 || n < row.ScanLimit
				}
				if row.ScanReverse {
					tbl.Descend(row.Key, row.ScanHi, visit)
				} else {
					tbl.Ascend(row.Key, row.ScanHi, visit)
				}
				if len(gotKeys) != len(row.ScanKeys) {
					return fmt.Errorf("oracle: txn %d (seq %d) row %d: scan %s[%q,%q) saw %d rows %v, serial replay has %d rows %v (phantom)",
						rec.Txn, rec.Seq, i, row.Table, row.Key, row.ScanHi, len(row.ScanKeys), row.ScanKeys, len(gotKeys), gotKeys)
				}
				for j, k := range gotKeys {
					if k != row.ScanKeys[j] {
						return fmt.Errorf("oracle: txn %d (seq %d) row %d: scan %s[%q,%q) position %d saw key %q, serial replay has %q (phantom)",
							rec.Txn, rec.Seq, i, row.Table, row.Key, row.ScanHi, j, row.ScanKeys[j], k)
					}
					if fmt.Sprintf("%v", gotVals[j]) != fmt.Sprintf("%v", row.ScanVals[j]) {
						return fmt.Errorf("oracle: txn %d (seq %d) row %d: scan %s[%q,%q) key %q saw %v, serial replay has %v",
							rec.Txn, rec.Seq, i, row.Table, row.Key, row.ScanHi, k, row.ScanVals[j], gotVals[j])
					}
				}
			}
		}
	}
	if err := storage.DiffStores(replay, final); err != nil {
		return fmt.Errorf("oracle: final state diverges from serial replay of %d committed txns: %w",
			len(h.committed), err)
	}
	return nil
}
