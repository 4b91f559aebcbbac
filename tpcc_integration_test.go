package specdb

import (
	"testing"

	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/workload"
)

// tpccOpts configures a TPC-C cluster; n > 0 caps the workload for
// run-to-quiescence tests. The loader is returned so tests can rebuild the
// initial stores (e.g. for the serializability oracle).
func tpccOpts(scheme Scheme, warehouses int, n int) ([]Option, tpcc.Layout, tpcc.Loader) {
	layout := tpcc.Layout{Warehouses: warehouses, Partitions: 2}
	scale := tpcc.Scale{Items: 200, StockPerWarehouse: 200, CustomersPerDist: 30, InitialOrders: 10}
	reg := NewRegistry()
	tpcc.RegisterAll(reg)
	loader := tpcc.Loader{Layout: layout, Scale: scale, Seed: 11}
	mkGen := func() Generator {
		var gen Generator = &tpcc.Mix{
			Layout: layout, Scale: scale,
			RemoteItemProb: 0.01, RemotePaymentProb: 0.15,
		}
		if n > 0 {
			gen = &workload.Limit{Gen: gen, N: n}
		}
		return gen
	}
	return []Option{
		WithPartitions(2),
		WithClients(20),
		WithScheme(scheme),
		WithSeed(3),
		WithRegistry(reg),
		WithCatalog(&Catalog{Meta: layout}),
		WithSetup(loader.Load),
		WithWorkloadFactory(mkGen),
	}, layout, loader
}

// TestTPCCConsistencyAllSchemes runs a finite TPC-C mix to quiescence under
// each scheme and verifies the TPC-C consistency conditions — the
// end-to-end serializability oracle (lost updates, double-applied
// speculation or phantom deliveries all break them).
func TestTPCCConsistencyAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			opts, layout, _ := tpccOpts(scheme, 4, 1500)
			committed, aborted := 0, 0
			opts = append(opts, WithOnComplete(func(ci int, inv *Invocation, r *Reply) {
				if r.Committed {
					committed++
				} else {
					aborted++
				}
			}))
			db := mustOpen(t, opts...)
			db.Run()
			if committed == 0 {
				t.Fatal("nothing committed")
			}
			// ~1% of NewOrders (45% of the mix) carry invalid items.
			if aborted == 0 {
				t.Log("note: no user aborts in this sample")
			}
			stores := []*storage.Store{db.PartitionStore(0), db.PartitionStore(1)}
			if err := tpcc.CheckConsistency(layout, stores); err != nil {
				t.Fatalf("consistency violated after %d commits: %v", committed, err)
			}
		})
	}
}

// TestTPCCAllInvocationsComplete: every generated transaction completes
// under every scheme (commit or deterministic user abort) — nothing is lost
// to kills, cascades or re-execution. Final states legitimately differ
// across schemes (order ids depend on the serialization order), so only the
// completion accounting is compared.
func TestTPCCAllInvocationsComplete(t *testing.T) {
	const n = 800
	for _, scheme := range allSchemes {
		opts, _, _ := tpccOpts(scheme, 4, n)
		completed := 0
		opts = append(opts, WithOnComplete(func(ci int, inv *Invocation, r *Reply) { completed++ }))
		db := mustOpen(t, opts...)
		db.Run()
		if completed != n {
			t.Errorf("%v: completed %d of %d", scheme, completed, n)
		}
	}
}

func TestTPCCReplicationConverges(t *testing.T) {
	for _, scheme := range []Scheme{Speculation, Blocking} {
		t.Run(scheme.String(), func(t *testing.T) {
			opts, layout, _ := tpccOpts(scheme, 4, 600)
			db := mustOpen(t, append(opts, WithReplicas(2))...)
			db.Run()
			// Key-for-key replica equivalence plus the TPC-C consistency
			// conditions on the backup stores themselves; TPC-C's user
			// aborts and speculative cascades are exactly the traffic that
			// breaks a replication stream with a lost, duplicated or
			// reordered forward.
			primaries := []*storage.Store{db.PartitionStore(0), db.PartitionStore(1)}
			backups := [][]*storage.Store{db.BackupStores(0), db.BackupStores(1)}
			if err := tpcc.CheckReplicaConsistency(layout, primaries, backups); err != nil {
				t.Fatal(err)
			}
			if err := tpcc.CheckConsistency(layout, primaries); err != nil {
				t.Fatal(err)
			}
			// No prepared transaction may survive quiescence.
			for p := 0; p < 2; p++ {
				for r, b := range db.groups[p].backups {
					if n := b.BufferedLen(); n != 0 {
						t.Errorf("partition %d backup %d leaked %d buffered transactions", p, r+1, n)
					}
				}
			}
		})
	}
}

// TestTPCCFailoverConsistency crashes a primary mid-TPC-C and verifies the
// promoted cluster still satisfies the TPC-C consistency conditions — the
// strongest end-to-end check that promotion loses no committed transaction
// and applies none twice.
func TestTPCCFailoverConsistency(t *testing.T) {
	opts, layout, _ := tpccOpts(Speculation, 4, 1200)
	completed := 0
	opts = append(opts,
		WithReplicas(2),
		WithFaults(CrashPrimary(0, 15*Millisecond)),
		WithOnComplete(func(ci int, inv *Invocation, r *Reply) { completed++ }),
	)
	db := mustOpen(t, opts...)
	for i := 0; i < 10_000 && !db.Quiescent(); i++ {
		db.RunFor(10 * Millisecond)
	}
	if !db.Quiescent() {
		t.Fatal("TPC-C run did not quiesce after the failover")
	}
	db.Run()
	if completed != 1200 {
		t.Fatalf("completed %d of 1200 invocations", completed)
	}
	res := db.Result()
	if len(res.Failovers) != 1 || res.Failovers[0].PromotedAt == 0 {
		t.Fatalf("failover did not complete: %+v", res.Failovers)
	}
	if res.FailoverResends == 0 {
		t.Error("no recovery resends: the crash missed the traffic")
	}
	stores := []*storage.Store{db.PartitionStore(0), db.PartitionStore(1)}
	if err := tpcc.CheckConsistency(layout, stores); err != nil {
		t.Fatalf("consistency violated across promotion: %v", err)
	}
	// The surviving partition's backup still mirrors its primary.
	if err := storage.DiffStores(db.PartitionStore(1), db.BackupStores(1)[0]); err != nil {
		t.Fatal(err)
	}
}

// TestTPCCThroughputOrdering checks the Figure 8 ordering at 6 warehouses
// via a scheme-axis Sweep: speculation > blocking > locking (locking pays
// lock overhead plus contention on warehouse and district rows).
func TestTPCCThroughputOrdering(t *testing.T) {
	base, _, _ := tpccOpts(Speculation, 6, 0)
	base = append(base,
		WithClients(40),
		WithWarmup(50*Millisecond),
		WithMeasure(300*Millisecond),
	)
	schemes := []Scheme{Blocking, Speculation, Locking}
	cells, err := Sweep{
		Name: "tpcc-ordering",
		Base: base,
		Axes: []Axis{SchemeAxis(schemes...)},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	tput := map[Scheme]float64{}
	for i, cell := range cells {
		tput[schemes[i]] = cell.Result.Throughput
	}
	if !(tput[Speculation] > tput[Blocking]) {
		t.Errorf("speculation (%.0f) should beat blocking (%.0f)", tput[Speculation], tput[Blocking])
	}
	if !(tput[Speculation] > tput[Locking]) {
		t.Errorf("speculation (%.0f) should beat locking (%.0f)", tput[Speculation], tput[Locking])
	}
}
