package bench

import (
	"fmt"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/sim"
	"specdb/internal/workload"
)

// recoveryCfg parameterizes one crash-restart cell: a durable 4-partition
// cluster with a configurable checkpoint interval and a set of partitions
// crashed simultaneously mid-run.
type recoveryCfg struct {
	ckptInterval sim.Time
	crashed      int
}

const (
	recoveryParts   = 4
	recoveryClients = 16
)

// recoveryOpts assembles the option set for one recovery cell. Crashes land
// on partitions 0..crashed-1 at the midpoint of the measurement window, so
// every cell replays a comparable log tail.
func recoveryOpts(o Opts, c recoveryCfg) []specdb.Option {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	crashAt := o.Warmup + o.Measure/2
	var faults []specdb.FaultEvent
	for p := 0; p < c.crashed; p++ {
		faults = append(faults, specdb.CrashRestart(specdb.PartitionID(p), crashAt))
	}
	return []specdb.Option{
		specdb.WithPartitions(recoveryParts),
		specdb.WithClients(recoveryClients),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithSeed(o.Seed),
		specdb.WithWarmup(o.Warmup),
		specdb.WithMeasure(o.Measure),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, recoveryClients, microKeys)
		}),
		specdb.WithWorkloadFactory(func() specdb.Generator {
			return &workload.Micro{
				Partitions: recoveryParts,
				KeysPerTxn: microKeys,
				MPFraction: 0.05,
			}
		}),
		specdb.WithDurability(specdb.DurabilityConfig{CheckpointInterval: c.ckptInterval}),
		specdb.WithFaults(faults...),
	}
}

// runRecovery executes one crash-restart cell and condenses its recovery
// events: Y is the mean per-partition recovery latency in milliseconds, with
// the replayed log bytes and transactions summed across crashed partitions.
func runRecovery(o Opts, c recoveryCfg) Point {
	db, err := specdb.Open(recoveryOpts(o, c)...)
	if err != nil {
		panic(fmt.Sprintf("bench: invalid recovery config: %v", err))
	}
	r := db.Run()
	p := Point{X: c.ckptInterval.Micros() / 1000}
	if len(r.Recovery) == 0 {
		return p
	}
	var lat sim.Time
	for _, e := range r.Recovery {
		lat += e.RecoveryLatency()
		p.LogBytes += e.LogBytes
		p.ReplayTxns += uint64(e.ReplayTxns)
	}
	p.RecoveryMs = (lat / sim.Time(len(r.Recovery))).Micros() / 1000
	p.Y = p.RecoveryMs
	return p
}

// RecoveryCheckpoint measures crash-restart recovery latency against the
// checkpoint interval: tighter checkpoints leave a shorter log tail to
// replay, so recovery time shrinks as the interval does. One series per
// simultaneous-crash width shows parallel replay: partitions recover
// independently, so widening the crash barely moves the per-partition
// latency.
func RecoveryCheckpoint() Experiment {
	return Experiment{
		ID:    "recovery-checkpoint",
		Title: "Recovery Latency vs Checkpoint Interval",
		Ref:   "command logging + fuzzy checkpoints",
		XAxis: "checkpoint interval (ms)",
		YAxis: "mean recovery latency (ms)",
		Run: func(o Opts) []Series {
			intervals := []sim.Time{2, 5, 10, 20, 40}
			if o.Coarse {
				intervals = []sim.Time{2, 10, 40}
			}
			var out []Series
			for _, crashed := range []int{1, 2, 4} {
				s := Series{Name: fmt.Sprintf("%d crashed", crashed)}
				for _, iv := range intervals {
					s.Points = append(s.Points,
						runRecovery(o, recoveryCfg{ckptInterval: iv * sim.Millisecond, crashed: crashed}))
				}
				out = append(out, s)
			}
			return out
		},
	}
}

// DurableOverhead measures what command logging costs when nothing crashes:
// durable vs non-durable throughput across the multi-partition fraction.
// Group commit keeps the overhead to added latency, not lost throughput, on
// closed-loop clients with enough concurrency to cover the commit delay.
func DurableOverhead() Experiment {
	return Experiment{
		ID:    "durable-overhead",
		Title: "Command Logging Overhead (durable vs non-durable)",
		Ref:   "group commit",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			grid := mpFractions(o)
			durable := specdb.WithDurability(specdb.DurabilityConfig{})
			return []Series{
				sweepExtra(o, "Speculation", microCfg{scheme: specdb.Speculation}, grid),
				sweepExtra(o, "Speculation durable", microCfg{scheme: specdb.Speculation}, grid, durable),
				sweepExtra(o, "Blocking", microCfg{scheme: specdb.Blocking}, grid),
				sweepExtra(o, "Blocking durable", microCfg{scheme: specdb.Blocking}, grid, durable),
			}
		},
	}
}

// sweepExtra is sweepGrid with extra base options appended to every cell.
func sweepExtra(o Opts, name string, base microCfg, grid []float64, extra ...specdb.Option) Series {
	cells, err := specdb.Sweep{
		Name: name,
		Base: append(microOpts(o, base), extra...),
		Axes: []specdb.Axis{mpAxis(base, grid)},
	}.Run()
	if err != nil {
		panic(fmt.Sprintf("bench: sweep %s: %v", name, err))
	}
	s := Series{Name: name}
	for _, cell := range cells {
		s.Points = append(s.Points, pointFor(cell.Xs[0]*100, cell.Result))
	}
	return s
}
