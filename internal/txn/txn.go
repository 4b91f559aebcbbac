// Package txn defines the stored procedure framework. H-Store only executes
// pre-declared stored procedures (§2.1): each invocation is one transaction,
// divided into fragments — units of work that each run at exactly one
// partition (§3.1). A procedure supplies the fragment plan, the
// coordinator-side continuation logic between rounds, and the partition-side
// fragment body.
package txn

import (
	"errors"
	"fmt"

	"specdb/internal/msg"
	"specdb/internal/storage"
)

// ErrUserAbort is returned by a fragment body to abort the transaction
// deliberately. Any other non-nil error also aborts, but ErrUserAbort marks
// the abort as an application outcome rather than a failure.
var ErrUserAbort = errors.New("txn: user abort")

// Catalog describes how data is distributed, mirroring the catalog a client
// library downloads on connect (§3.1).
type Catalog struct {
	// NumPartitions is the number of logical data partitions.
	NumPartitions int
	// Meta carries workload-specific routing state (e.g. warehouses per
	// partition for TPC-C). Procedures downcast as needed.
	Meta any
}

// Plan is the initial fragment layout for one transaction.
type Plan struct {
	// Parts lists the partitions the transaction touches, in ascending
	// order; a single entry means a single-partition transaction.
	Parts []msg.PartitionID
	// Work holds the round-0 fragment input per partition.
	Work map[msg.PartitionID]any
	// Rounds is the total number of communication rounds (1 for "simple
	// multi-partition transactions", §4.2.2).
	Rounds int
	// CanAbort marks transactions that may issue a user abort and hence
	// need an undo buffer even on the no-concurrency fast path (§3.2).
	CanAbort bool
	// ReadOnly declares that no fragment of the transaction writes. The
	// client propagates it so the MVCC engine can serve the transaction
	// from a consistent snapshot (never blocking, never aborting).
	ReadOnly bool
	// Scans declares the key ranges each partition's fragments will scan,
	// in canonical (table, lo, hi) order per partition. The client copies a
	// partition's ranges onto its fragments so routing and lock order stay
	// canonical; procedures that scan ad hoc may leave this nil.
	Scans map[msg.PartitionID][]msg.KeyRange
}

// Procedure is a stored procedure. Implementations must be deterministic:
// replicas re-execute fragment bodies from the same inputs (§4.3), and
// speculative re-execution assumes identical results given identical state.
type Procedure interface {
	// Name returns the procedure's registry key.
	Name() string
	// Plan splits an invocation into partitions and round-0 work.
	Plan(args any, cat *Catalog) Plan
	// Continue computes the work for round (>=1) from the results of all
	// previous rounds. Only multi-round procedures are ever asked.
	Continue(args any, round int, prior []msg.FragmentResult, cat *Catalog) map[msg.PartitionID]any
	// Run executes one fragment against partition-local data. A non-nil
	// error aborts the transaction. An engine may unwind Run from inside a
	// view call and run it again from its start (see storage.Locker), so
	// Run must have no effect outside the view and must not mutate work.
	Run(view *storage.TxnView, work any) (any, error)
	// Output combines the final round's fragment results into the
	// client-visible transaction output.
	Output(args any, final []msg.FragmentResult) any
}

// Invocation is a client's intent to run a procedure, produced by workload
// generators.
type Invocation struct {
	Proc string
	Args any
	// AbortAt injects a deterministic local abort at the given partition
	// (the §5.3 abort microbenchmark); NoAbort means none.
	AbortAt msg.PartitionID
}

// NoAbort disables abort injection.
const NoAbort msg.PartitionID = -1

// Registry maps procedure names to implementations.
type Registry struct {
	procs map[string]Procedure
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[string]Procedure)}
}

// Register adds a procedure, panicking on duplicates (static configuration).
func (r *Registry) Register(p Procedure) {
	if _, dup := r.procs[p.Name()]; dup {
		panic(fmt.Sprintf("txn: duplicate procedure %q", p.Name()))
	}
	r.procs[p.Name()] = p
}

// Get returns the named procedure, panicking if absent: an unknown procedure
// is a configuration error, not a runtime condition.
func (r *Registry) Get(name string) Procedure {
	p, ok := r.procs[name]
	if !ok {
		panic(fmt.Sprintf("txn: unknown procedure %q", name))
	}
	return p
}

// Names returns the registered procedure names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.procs))
	for n := range r.procs {
		out = append(out, n)
	}
	return out
}
