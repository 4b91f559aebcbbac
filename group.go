package specdb

import (
	"specdb/internal/core"
	"specdb/internal/durable"
	"specdb/internal/fault"
	"specdb/internal/oracle"
	"specdb/internal/partition"
	"specdb/internal/replication"
	"specdb/internal/sim"
)

// replicaGroup is one partition's process group and the single owner of "who
// serves this partition now": the original primary, its backups, its command
// log and — when a CrashRestart fault is scheduled — its restarter. Failover,
// crash-restart, migration, scheme switches and result folding all ask the
// group instead of re-deriving the answer from parallel slices.
type replicaGroup struct {
	primary   *partition.Partition
	primaryID sim.ActorID
	backups   []*replication.Backup
	backupIDs []sim.ActorID
	// logger is nil when durability is off; restarter is nil unless the
	// partition has a scheduled CrashRestart fault.
	logger      *durable.Logger
	restarter   *replication.Restarter
	restarterID sim.ActorID
	// history is the serializability-oracle trace (test-only withHistory
	// option; nil otherwise).
	history *oracle.PartitionHistory
}

// live returns the partition process currently serving the partition and the
// actor it runs on: the original primary, or — after a failover or
// crash-restart — the promoted backup's or restarter's inner process (their
// Receive delegates normal partition traffic to it).
func (g *replicaGroup) live() (*partition.Partition, sim.ActorID) {
	for i, b := range g.backups {
		if inner := b.Promoted(); inner != nil {
			return inner, g.backupIDs[i]
		}
	}
	if g.restarter != nil {
		if inner := g.restarter.Promoted(); inner != nil {
			return inner, g.restarterID
		}
	}
	return g.primary, g.primaryID
}

// busy returns the partition's cumulative virtual CPU time: the original
// primary's actor plus, after a takeover, the actor that took over (a
// promoted backup's busy time includes its backup-era replica application).
func (g *replicaGroup) busy(rt sim.Runtime) Time {
	busy := rt.BusyTime(g.primaryID)
	if _, id := g.live(); id != g.primaryID {
		busy += rt.BusyTime(id)
	}
	return busy
}

// engineStats returns the partition's engine counters, the dead primary's
// pre-crash counters folded under the process that took over.
func (g *replicaGroup) engineStats() core.EngineStats {
	stats := g.primary.EngineTotals()
	if live, _ := g.live(); live != g.primary {
		stats = stats.Add(live.EngineTotals())
	}
	return stats
}

// recovering reports whether a takeover of this partition is still resolving
// old-world transactions.
func (g *replicaGroup) recovering() bool {
	for _, b := range g.backups {
		if b.Recovering() {
			return true
		}
	}
	return g.restarter != nil && g.restarter.Recovering()
}

// setEngineFactory keeps every standby's takeover engine current across
// scheme switches.
func (g *replicaGroup) setEngineFactory(f func(env core.Env) core.Engine) {
	for _, b := range g.backups {
		b.EngineFactory = f
	}
	if g.restarter != nil {
		g.restarter.EngineFactory = f
	}
}

// victim returns the actor a scheduled fault kills.
func (g *replicaGroup) victim(ev fault.Event) sim.ActorID {
	if ev.Kind == fault.KindCrashBackup {
		return g.backupIDs[ev.Replica-1]
	}
	return g.primaryID
}

// replicaStores returns the stores of the backups still replicating: a
// promoted backup's store is the partition's primary store, not a replica of
// it, and a crashed backup's store froze at its crash.
func (g *replicaGroup) replicaStores(rt sim.Runtime) []*Store {
	var out []*Store
	for i, b := range g.backups {
		if b.Promoted() == nil && rt.Alive(g.backupIDs[i]) {
			out = append(out, b.Store)
		}
	}
	return out
}
