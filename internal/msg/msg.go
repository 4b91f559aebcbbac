// Package msg defines the message types exchanged between clients, the
// central coordinator, partition primaries and backups. Messages are plain
// in-memory values: the simulated network (internal/simnet) delivers
// references with a latency charge rather than serializing bytes, mirroring
// the paper's deliberately tiny payloads ("3 byte keys and 4 byte values to
// avoid complications caused by data transfer time", §5.1).
package msg

import (
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// TxnID identifies a transaction. Client-issued IDs place the client's actor
// ID in the high bits so IDs are globally unique without coordination.
type TxnID uint64

// NoTxn is the zero TxnID.
const NoTxn TxnID = 0

// MakeTxnID builds a TxnID from an issuing actor and a local sequence number.
func MakeTxnID(issuer sim.ActorID, seq uint32) TxnID {
	return TxnID(uint64(issuer)<<32 | uint64(seq))
}

// Issuer returns the actor that created the ID.
func (id TxnID) Issuer() sim.ActorID { return sim.ActorID(id >> 32) }

// PartitionID numbers the logical data partitions from 0.
type PartitionID int32

// KeyRange declares a half-open scanned key range [Lo, Hi) on a table; an
// empty Hi means unbounded. Plans carry ranges so the client can route scan
// fragments, and fragments carry them so engines see the declared scan set
// up front in canonical (table, lo, hi) order.
type KeyRange struct {
	Table string
	Lo    string
	Hi    string
}

// Contains reports whether the row (table, key) lies inside the range.
func (r KeyRange) Contains(table, key string) bool {
	return table == r.Table && key >= r.Lo && (r.Hi == "" || key < r.Hi)
}

// Request is a stored procedure invocation sent by a client. Single-partition
// requests go directly to the owning partition; multi-partition requests go
// to the central coordinator (blocking and speculative schemes) or are
// coordinated by the client itself (locking scheme, §4.3).
type Request struct {
	Txn    TxnID
	Proc   string
	Args   any
	Client sim.ActorID
	// Parts lists the partitions the transaction touches, as computed by
	// the client library from the catalog.
	Parts []PartitionID
	// CanAbort marks procedures that may issue a user abort; those are
	// executed with an undo buffer even on the fast path (§3.2).
	CanAbort bool
	// ReadOnly declares that the transaction performs no writes. The MVCC
	// engine runs declared read-only transactions against a consistent
	// snapshot: they never block and never abort.
	ReadOnly bool
	// AbortAt injects a deterministic abort at the given partition
	// (§5.3); -1 disables injection.
	AbortAt PartitionID
}

// SinglePartition reports whether the request touches exactly one partition.
func (r *Request) SinglePartition() bool { return len(r.Parts) == 1 }

// Fragment is a unit of work executed at exactly one partition (§3.1).
type Fragment struct {
	Txn   TxnID
	Proc  string
	Round int
	// Last marks the final fragment this transaction will execute at this
	// partition; the 2PC "prepare" is piggybacked on it (§3.3). For
	// single-partition transactions it is always true.
	Last bool
	// Work is the procedure-specific input for this fragment.
	Work any
	// Partition is the destination partition.
	Partition PartitionID
	// Coord receives the FragmentResult: the central coordinator, or the
	// client itself in the locking scheme.
	Coord sim.ActorID
	// Client is the end client awaiting the transaction outcome.
	Client sim.ActorID
	// MultiPartition distinguishes MP fragments from single-partition
	// requests converted to fragments.
	MultiPartition bool
	// CanAbort propagates Request.CanAbort.
	CanAbort bool
	// ReadOnly propagates Request.ReadOnly: the fragment performs no
	// writes, so MVCC serves it from a snapshot without conflict checks.
	ReadOnly bool
	// Scans lists the key ranges this fragment was declared to scan at this
	// partition (Plan.Scans routing), in canonical order.
	Scans []KeyRange
	// InjectAbort makes the fragment abort at the start of execution
	// (the abort-rate microbenchmark, §5.3).
	InjectAbort bool
	// Gen is the coordinator's abort generation for the destination
	// partition; results echo the latest generation seen so the
	// coordinator can discard speculative results invalidated by an
	// abort that were still in flight (§4.2.2).
	Gen uint32
}

// FragmentResult returns a fragment's output to its coordinator. When Last
// was set, it doubles as the 2PC vote: Aborted=false means "ready to commit".
type FragmentResult struct {
	Txn       TxnID
	Round     int
	Partition PartitionID
	Output    any
	// Aborted reports a local abort (user abort, injected abort, or
	// deadlock victim). A true value is a 2PC "no" vote.
	Aborted bool
	// Killed marks an abort caused by deadlock victim selection or the
	// distributed deadlock timeout (§4.3); the client library retries.
	Killed bool
	// Speculative marks results computed before an earlier transaction's
	// outcome was known. DependsOn identifies that transaction; the
	// coordinator must discard this result if DependsOn aborts (§4.2.2).
	Speculative bool
	DependsOn   TxnID
	// Gen echoes the highest Fragment/Decision generation this partition
	// has observed from the result's coordinator.
	Gen uint32
}

// Decision is the 2PC outcome broadcast by the coordinator.
type Decision struct {
	Txn    TxnID
	Commit bool
	// Gen carries the coordinator's (possibly just incremented, on
	// abort) generation for the destination partition.
	Gen uint32
	// Recovery marks a decision for a transaction that was in flight when
	// the destination partition's primary crashed. The promoted primary
	// resolves it against its buffered prepared transactions instead of
	// its (fresh) engine, which never saw the transaction.
	Recovery bool
}

// ClientReply completes a transaction at its client.
type ClientReply struct {
	Txn       TxnID
	Output    any
	Committed bool
	// UserAborted distinguishes an intentional abort (counted as a
	// completed transaction by the abort benchmark) from a deadlock or
	// timeout kill, which the client library retries.
	UserAborted bool
	// Retryable is set on deadlock/timeout kills under locking.
	Retryable bool
}

// ReplicaForward carries an executed transaction from a primary to a backup.
// It includes every fragment the primary executed for the transaction plus
// any remote data the fragments consumed (baked into the work inputs), so
// backups never participate in distributed transactions (§4.3).
type ReplicaForward struct {
	Txn   TxnID
	Proc  string
	Works []any
	// Committed means the transaction outcome is already known (single
	// partition commits); the backup applies immediately. Otherwise it
	// buffers until a ReplicaDecision arrives.
	Committed bool
	// Seq distinguishes re-forwards after speculative re-execution.
	Seq uint32
	// Client is the end client of a committed single-partition forward,
	// and Reply the reply the primary released to it. A promoted backup
	// uses them to deduplicate client recovery resends: if the client's
	// last applied transaction matches a resent fragment, the stored
	// reply is returned instead of executing the transaction twice.
	Client sim.ActorID
	Reply  *ClientReply
}

// ReplicaAck acknowledges a ReplicaForward.
type ReplicaAck struct {
	Txn  TxnID
	From sim.ActorID
	Seq  uint32
}

// ReplicaDecision resolves a buffered multi-partition forward at a backup.
type ReplicaDecision struct {
	Txn    TxnID
	Commit bool
}

// --- Failure detection and failover (crash faults) ---

// Heartbeat is the liveness pulse exchanged between a primary and its
// backups when fault injection is enabled. Primaries pulse their backups
// (primary-crash detection); backups pulse their primary (backup-crash
// detection). Heartbeats carry no payload and cost no CPU — only their
// absence is information.
type Heartbeat struct {
	Partition PartitionID
	From      sim.ActorID
}

// StartPulse kicks an actor's heartbeat loop at simulation start.
type StartPulse struct{}

// StopPulse ends an actor's heartbeat loop; the primary sends it to
// surviving backups once a crashed backup has been detected and detached,
// so the event queue can drain to quiescence.
type StopPulse struct{}

// StartMonitor arms an actor's failure detector at simulation start.
type StartMonitor struct{}

// RecoveryQuery is sent by a backup that has promoted itself after
// detecting its primary's crash. It asks the coordinator for the outcomes
// of the prepared-but-undecided transactions the backup holds buffered,
// and doubles as the coordinator's failover notification for the
// partition.
type RecoveryQuery struct {
	Partition PartitionID
	// NewPrimary is the promoted backup's actor ID; the coordinator
	// re-targets the partition and tells the clients.
	NewPrimary sim.ActorID
	// Buffered lists the buffered transactions, in forward order.
	Buffered []TxnID
}

// TxnOutcome pairs a transaction with its decided 2PC outcome.
type TxnOutcome struct {
	Txn    TxnID
	Commit bool
}

// RecoveryOutcome answers a RecoveryQuery: the outcomes of every buffered
// transaction the coordinator had already decided, in decision order. The
// promoted primary applies the commits and drops the aborts; buffered
// transactions still pending at the coordinator are resolved later by
// Recovery-flagged Decisions.
type RecoveryOutcome struct {
	Partition PartitionID
	Outcomes  []TxnOutcome
}

// --- Elastic repartitioning (live key-range migration) ---

// MigRow is one row in flight during a key-range migration: the table it
// lives in, its key, and its value (a reference, like every simulated
// payload — rows are copy-on-write, so the reference is safe to share). It is
// the store's own row form, so Store.TakeRange and Store.PutRows produce and
// consume migration payloads directly.
type MigRow = storage.Row

// MigrateOut starts a key-range migration at the donor partition. The facade
// sends it at a drained quiescent point (no transaction in flight anywhere),
// so the donor can collect and delete the range [Lo, Hi) directly from its
// store without racing an engine. The donor forwards the deletion to its
// backups (FIFO after every earlier replica decision), logs a migration
// record when durable, and ships the collected rows to Dest as a MigrateIn.
type MigrateOut struct {
	// Lo and Hi bound the migrated key range, half-open; empty Hi means
	// unbounded above. The range applies to every table in the store.
	Lo, Hi string
	// Dest is the receiving partition's (live primary's) actor.
	Dest sim.ActorID
	// Cost is the virtual CPU time the donor spends freezing and copying
	// the range (the facade prices it from the row bytes and the
	// configured copy bandwidth). The destination spends the same applying.
	Cost sim.Time
}

// MigrateIn delivers a migrated key range to the destination partition,
// which installs the rows, forwards them to its backups, and logs a
// migration record when durable.
type MigrateIn struct {
	Rows []MigRow
	Cost sim.Time
}

// ReplicaMigrateOut tells a donor's backup to delete the migrated range.
// It rides the same FIFO link as ReplicaForward/ReplicaDecision, so it
// applies after every transaction that committed before the migration.
type ReplicaMigrateOut struct {
	Lo, Hi string
}

// ReplicaMigrateIn tells a destination's backup to install the migrated
// rows.
type ReplicaMigrateIn struct {
	Rows []MigRow
}

// Restart tells a crashed partition's restarter actor to begin crash-restart
// recovery: load the latest checkpoint, replay the durable log tail, and take
// over as primary. The fault controller sends it one restart delay after the
// kill (modeling the supervisor noticing the dead process).
type Restart struct{}

// NewPrimary announces a completed promotion. The coordinator broadcasts it
// to every client (which re-targets the partition and resends a stalled
// single-partition attempt); the promoting backup sends it to surviving
// peer backups (which re-target their acknowledgments and stand down their
// own failure detectors).
type NewPrimary struct {
	Partition PartitionID
	Actor     sim.ActorID
}
