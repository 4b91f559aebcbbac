// Package fault implements deterministic crash-fault injection. A fault
// schedule is a fixed list of fail-stop events — "kill partition 2's primary
// at t=150ms" — executed by a controller actor on the simulation's own event
// queue, so a faulted run remains a pure function of its configuration: the
// same seed and the same schedule reproduce the same crash, the same
// detection, the same promotion and the same Result, bit for bit.
//
// The controller only injects the faults. Detection (heartbeat timeouts) and
// recovery (backup promotion, in-flight transaction resolution) live in
// internal/replication, internal/partition and internal/coordinator; see
// docs/ARCHITECTURE.md "Failures and recovery".
package fault

import (
	"fmt"

	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
)

// Kind discriminates fault events.
type Kind int

const (
	// KindCrashPrimary kills a partition's primary process.
	KindCrashPrimary Kind = iota
	// KindCrashBackup kills one backup replica of a partition.
	KindCrashBackup
	// KindCrashRestart kills a partition's primary and, after a restart
	// delay, brings it back from disk: the restarter actor loads the latest
	// checkpoint, replays the durable command-log tail, and takes over.
	// Requires durability (WithDurability) and no replication.
	KindCrashRestart
)

// Event is one scheduled fail-stop crash.
type Event struct {
	Kind      Kind
	Partition msg.PartitionID
	// Replica is the 1-based backup index for KindCrashBackup.
	Replica int
	// At is the virtual time the process dies.
	At sim.Time
}

// Default failure-detector parameters: a heartbeat every millisecond and a
// 10 ms silence threshold. The threshold must comfortably exceed the worst
// heartbeat delivery delay (network latency plus the receiver's CPU
// backlog), or a loaded-but-alive process is declared dead.
const (
	DefaultHeartbeat = 1 * sim.Millisecond
	DefaultTimeout   = 10 * sim.Millisecond
)

// Detection parameterizes the timeout-based failure detector.
type Detection struct {
	// Heartbeat is the pulse interval.
	Heartbeat sim.Time
	// Timeout is the silence threshold after which a process is declared
	// dead. Backups stagger it by replica rank so exactly one promotes.
	Timeout sim.Time
}

// WithDefaults fills zero fields with the package defaults.
func (d Detection) WithDefaults() Detection {
	if d.Heartbeat == 0 {
		d.Heartbeat = DefaultHeartbeat
	}
	if d.Timeout == 0 {
		d.Timeout = DefaultTimeout
	}
	return d
}

// Validate checks a fault schedule against a cluster shape. The supported
// envelope is deliberately tight: each partition may appear in at most one
// event (a partition that lost its primary has no further redundancy to
// lose, and a second fault on the same replica chain is outside the one-
// promotion state machine).
func Validate(events []Event, partitions, replicas int, det Detection, durable bool) error {
	if len(events) == 0 {
		return nil
	}
	if det.Heartbeat <= 0 || det.Timeout < 2*det.Heartbeat {
		return fmt.Errorf("failure detection needs heartbeat > 0 and timeout >= 2*heartbeat (got heartbeat=%v timeout=%v)", det.Heartbeat, det.Timeout)
	}
	seen := make(map[msg.PartitionID]bool, len(events))
	for i, ev := range events {
		if ev.Partition < 0 || int(ev.Partition) >= partitions {
			return fmt.Errorf("fault %d: partition %d out of range [0,%d)", i, ev.Partition, partitions)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault %d: negative time %v", i, ev.At)
		}
		if seen[ev.Partition] {
			return fmt.Errorf("fault %d: partition %d already has a scheduled fault (one per partition)", i, ev.Partition)
		}
		seen[ev.Partition] = true
		switch ev.Kind {
		case KindCrashPrimary:
			if replicas < 2 {
				return fmt.Errorf("fault %d: crashing partition %d's primary needs replicas >= 2 (got %d)", i, ev.Partition, replicas)
			}
		case KindCrashBackup:
			if ev.Replica < 1 || ev.Replica > replicas-1 {
				return fmt.Errorf("fault %d: backup replica %d out of range [1,%d]", i, ev.Replica, replicas-1)
			}
		case KindCrashRestart:
			if !durable {
				return fmt.Errorf("fault %d: crash-restart of partition %d needs durability (WithDurability)", i, ev.Partition)
			}
			if replicas != 1 {
				return fmt.Errorf("fault %d: crash-restart models recovery from disk and needs replicas == 1 (got %d; use CrashPrimary for failover)", i, replicas)
			}
		default:
			return fmt.Errorf("fault %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Controller is the fault-injection actor: each scheduled Event is delivered
// to it at the event's time, and it kills the target process in the sim
// kernel (messages to a dead actor are dropped — fail-stop).
type Controller struct {
	Rec *metrics.Collector
	// Victim names the actor an event kills. The cluster's topology owns the
	// answer; the sharded runtime's pre-registered kill markers ask the same
	// function.
	Victim func(Event) sim.ActorID
	// Restarter names the actor that brings a crash-restarted partition back.
	// RestartDelay is how long after the kill it is told to begin recovery —
	// the supervisor noticing the dead process and re-launching it.
	Restarter    func(msg.PartitionID) sim.ActorID
	RestartDelay sim.Time
	// SkipKill suppresses the synchronous Context.Kill: the sharded runtime
	// pre-registers every crash as a KillAt marker in the victim's own shard
	// (a synchronous cross-shard kill would race the victim's event loop), so
	// the controller only records metrics and drives the restart path there.
	SkipKill bool
}

// Receive executes one scheduled fault.
func (c *Controller) Receive(ctx *sim.Context, m sim.Message) {
	ev, ok := m.(Event)
	if !ok {
		panic(fmt.Sprintf("fault: unexpected message %T", m))
	}
	if !c.SkipKill {
		ctx.Kill(c.Victim(ev))
	}
	switch ev.Kind {
	case KindCrashPrimary:
		c.Rec.NoteCrash(int(ev.Partition), metrics.RolePrimary, 0, ctx.Now())
	case KindCrashBackup:
		c.Rec.NoteCrash(int(ev.Partition), metrics.RoleBackup, ev.Replica, ctx.Now())
	case KindCrashRestart:
		c.Rec.NoteRestartCrash(int(ev.Partition), ctx.Now())
		ctx.Send(c.Restarter(ev.Partition), msg.Restart{}, c.RestartDelay)
	}
}
