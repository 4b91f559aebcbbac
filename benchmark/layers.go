package main

import (
	"math/rand"
	"runtime"
	"time"

	"specdb/internal/core"
	"specdb/internal/durable"
	"specdb/internal/kvstore"
	"specdb/internal/locks"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/mvcc"
	"specdb/internal/occ"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/txn"
	"specdb/internal/undo"
	"specdb/internal/workload"
)

// The unit-cost suite times direct calls into each layer's public functions:
// what one operation of the layer costs with nothing around it. Every cost is
// the fast decile of at least unitBatches timed batches (batches are a few
// hundred microseconds, short enough that a tenth of them pass undisturbed);
// the _allocs twin is the mean heap allocations per operation over the same
// batches.

const (
	unitBatches = 200
	// unitBatchNs is the least a timed batch should take, so the two clock
	// reads around it do not matter.
	unitBatchNs = 200_000
	tableKeys   = 4096
)

// unitCost is one entry of the suite.
type unitCost struct {
	metric string // e.g. "sim.push_pop_ns"
	unit   string
	allocs string // the allocations twin's name, or "" for none
	// prepare builds the state once and returns op, which performs n
	// operations.
	prepare func() (op func(n int))
	// scale is how many reported units one operation holds (rows of a scan,
	// locks of a transaction); zero means one.
	scale float64
	// batches and batchOps override the defaults for operations too slow to
	// repeat hundreds of times (loading a warehouse).
	batches, batchOps int
}

func (u unitCost) defs() []metricDef {
	d := []metricDef{{Name: u.metric, Unit: u.unit, Better: "lower"}}
	if u.allocs != "" {
		d = append(d, metricDef{Name: u.allocs, Unit: "count", Better: "lower"})
	}
	return d
}

// runUnitCosts measures the whole suite.
func runUnitCosts() map[string]float64 {
	out := map[string]float64{}
	for _, u := range unitCosts {
		cost, allocs := u.measure()
		out[u.metric] = cost
		if u.allocs != "" {
			out[u.allocs] = allocs
		}
	}
	return out
}

func (u unitCost) measure() (cost, allocs float64) {
	op := u.prepare()
	n, batches := u.batchOps, u.batches
	if batches == 0 {
		batches = unitBatches
	}
	if n == 0 {
		// Double the batch until it is long enough to time; the doubling
		// runs are the warm-up.
		for n = 16; ; n *= 2 {
			t := time.Now()
			op(n)
			if time.Since(t) >= unitBatchNs || n >= 1<<20 {
				break
			}
		}
	}
	scale := u.scale
	if scale == 0 {
		scale = 1
	}
	units := float64(n) * scale
	times := make([]float64, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range times {
		t := time.Now()
		op(n)
		times[i] = float64(time.Since(t).Nanoseconds()) / units
	}
	runtime.ReadMemStats(&m1)
	cost = quantile(times, 0.10)
	if u.unit == "s" {
		cost /= 1e9
	}
	return cost, float64(m1.Mallocs-m0.Mallocs) / (units * float64(batches))
}

var unitCosts = []unitCost{
	{metric: "sim.push_pop_ns", unit: "ns", allocs: "sim.push_pop_allocs", prepare: prepSimPushPop},
	{metric: "sim.barrier_ns", unit: "ns", prepare: prepSimBarrier},
	{metric: "simnet.send_ns", unit: "ns", prepare: prepSimnetSend},
	{metric: "workload.next_ns", unit: "ns", allocs: "workload.next_allocs", prepare: prepWorkloadNext},
	{metric: "kvstore.fragment_ns", unit: "ns", allocs: "kvstore.fragment_allocs", prepare: prepKVFragment},
	{metric: "tpcc.neworder_ns", unit: "ns", allocs: "tpcc.neworder_allocs", prepare: func() func(int) { return prepTPCC(tpcc.ProcNewOrder) }},
	{metric: "tpcc.payment_ns", unit: "ns", allocs: "tpcc.payment_allocs", prepare: func() func(int) { return prepTPCC(tpcc.ProcPayment) }},
	{metric: "tpcc.load_s_per_wh", unit: "s", allocs: "tpcc.load_allocs_per_wh", prepare: prepTPCCLoad, scale: loadWarehouses, batches: 5, batchOps: 1},
	{metric: "core.blocking_fragment_ns", unit: "ns", allocs: "core.blocking_fragment_allocs", prepare: func() func(int) {
		return prepEngine(func(env core.Env) core.Engine { return core.NewBlocking(env) })
	}},
	{metric: "core.spec_fragment_ns", unit: "ns", allocs: "core.spec_fragment_allocs", prepare: func() func(int) {
		return prepEngine(func(env core.Env) core.Engine { return core.NewSpeculative(env) })
	}},
	{metric: "core.lock_fragment_ns", unit: "ns", allocs: "core.lock_fragment_allocs", prepare: func() func(int) {
		return prepEngine(func(env core.Env) core.Engine { return core.NewLocking(env, core.LockConfig{}) })
	}},
	{metric: "mvcc.fragment_ns", unit: "ns", allocs: "mvcc.fragment_allocs", prepare: func() func(int) {
		return prepEngine(func(env core.Env) core.Engine { return mvcc.New(env) })
	}},
	{metric: "occ.fragment_ns", unit: "ns", allocs: "occ.fragment_allocs", prepare: func() func(int) {
		return prepEngine(func(env core.Env) core.Engine { return occ.New(env, occ.Config{}) })
	}},
	{metric: "locks.acquire_release_ns", unit: "ns", prepare: prepLocks, scale: kvKeys},
	{metric: "locks.range_acquire_ns", unit: "ns", prepare: prepRangeLocks},
	{metric: "undo.record_rollback_ns", unit: "ns", prepare: prepUndo, scale: kvKeys},
	{metric: "storage.hash_get_ns", unit: "ns", prepare: func() func(int) { return prepTableGet(storage.NewHashTable("t")) }},
	{metric: "storage.hash_put_ns", unit: "ns", prepare: func() func(int) { return prepTablePut(storage.NewHashTable("t")) }},
	{metric: "btree.get_ns", unit: "ns", prepare: func() func(int) { return prepTableGet(storage.NewBTreeTable("t")) }},
	{metric: "btree.put_ns", unit: "ns", prepare: func() func(int) { return prepTablePut(storage.NewBTreeTable("t")) }},
	{metric: "btree.scan_ns_per_row", unit: "ns", prepare: prepScan, scale: scanRows},
	{metric: "durable.append_ns", unit: "ns", allocs: "durable.append_allocs", prepare: prepDurableAppend},
	{metric: "metrics.txndone_ns", unit: "ns", prepare: prepTxnDone},
}

// nop is an actor that ignores its messages.
type nop struct{}

func (nop) Receive(*sim.Context, sim.Message) {}

// prepSimPushPop: n events pushed onto the plain scheduler's heap at rising
// times, then popped and delivered to a no-op actor.
func prepSimPushPop() func(int) {
	s := sim.New()
	id := s.Register("nop", nop{})
	m := &struct{}{}
	return func(n int) {
		now := s.Now()
		for i := 0; i < n; i++ {
			s.SendAt(now+sim.Time(i), id, m)
		}
		s.Drain()
	}
}

// rearm is an actor that sets a timer for one horizon ahead on every message,
// so each window of the sharded runtime holds exactly one trivial event.
type rearm struct{ every sim.Time }

func (r rearm) Receive(ctx *sim.Context, m sim.Message) { ctx.After(r.every, m) }

// prepSimBarrier: one window round trip of the sharded runtime at width 2 —
// both workers woken, one of them delivering a single timer event, both
// collected, the exchange run.
func prepSimBarrier() func(int) {
	const horizon = 20 * sim.Microsecond
	s := sim.NewSharded(2, horizon)
	a := s.Register("timer", rearm{every: horizon})
	s.Assign(a, 0)
	s.Assign(s.Register("idle", nop{}), 1)
	s.SendAt(0, a, &struct{}{})
	var until sim.Time
	return func(n int) {
		until += sim.Time(n) * horizon
		s.Run(until)
	}
}

// pinger sends n messages through the network to a sink when kicked.
type pinger struct {
	net  *simnet.Net
	sink sim.ActorID
	m    sim.Message
}

func (p *pinger) Receive(ctx *sim.Context, m sim.Message) {
	for i := m.(int); i > 0; i-- {
		p.net.Send(ctx, p.sink, p.m)
	}
}

// prepSimnetSend: one message through simnet.Send and its delivery.
func prepSimnetSend() func(int) {
	s := sim.New()
	p := &pinger{net: simnet.New(20 * sim.Microsecond), sink: s.Register("sink", nop{}), m: &struct{}{}}
	id := s.Register("pinger", p)
	return func(n int) {
		s.SendAt(s.Now(), id, n)
		s.Drain()
	}
}

func microShape() workload.Shape {
	return workload.Shape{Clients: clients, Partitions: 2, Replicas: 1, MaxInFlight: 1}
}

// prepWorkloadNext: the micro-spec generator's issue path.
func prepWorkloadNext() func(int) {
	m := &workload.Micro{Partitions: 2, KeysPerTxn: kvKeys, MPFraction: 0.10}
	m.SetShape(microShape())
	rng := rand.New(rand.NewSource(1))
	return func(n int) {
		for i := 0; i < n; i++ {
			m.Next(i%clients, rng)
		}
	}
}

// kvFragment builds a loaded hash-layout kv store and client 0's 12-key
// single-partition read-modify-write fragment input.
func kvFragment() (*storage.Store, any) {
	st := storage.NewStore()
	kvstore.AddSchema(st)
	kvstore.Load(st, 0, clients, kvKeys)
	args := &kvstore.Args{Keys: map[msg.PartitionID][]string{0: kvstore.PartitionKeys(0, 0, kvKeys)}}
	return st, kvstore.Proc{}.Plan(args, &txn.Catalog{NumPartitions: 1}).Work[0]
}

// prepKVFragment: the 12-key fragment body straight against storage — no
// engine, no undo, no locks.
func prepKVFragment() func(int) {
	st, work := kvFragment()
	var view storage.TxnView
	return func(n int) {
		for i := 0; i < n; i++ {
			view.Reset(st, nil, nil)
			if _, err := (kvstore.Proc{}).Run(&view, work); err != nil {
				panic(err)
			}
		}
	}
}

// prepTPCC: Plan plus the home fragment body of one TPC-C procedure against
// a loaded single-warehouse store, over a fixed pool of generated arguments.
func prepTPCC(procName string) func(int) {
	layout := tpcc.Layout{Warehouses: 1, Partitions: 1}
	scale := tpcc.DefaultScale()
	st := storage.NewStore()
	tpcc.Loader{Layout: layout, Scale: scale, Seed: 1}.Load(0, st)
	cat := &txn.Catalog{NumPartitions: 1, Meta: layout}
	reg := txn.NewRegistry()
	tpcc.RegisterAll(reg)
	proc := reg.Get(procName)
	mix := &tpcc.Mix{Layout: layout, Scale: scale}
	rng := rand.New(rand.NewSource(1))
	var pool []any
	for len(pool) < 256 {
		if inv := mix.Next(0, rng); inv.Proc == procName {
			pool = append(pool, inv.Args)
		}
	}
	var view storage.TxnView
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			plan := proc.Plan(pool[i%len(pool)], cat)
			view.Reset(st, nil, nil)
			// The 1% invalid-item NewOrder returns ErrUserAbort by design.
			_, _ = proc.Run(&view, plan.Work[0])
			i++
		}
	}
}

const loadWarehouses = 2

// prepTPCCLoad: the loader over a fresh store, what tpcc-lock's set-up pays
// per warehouse (the replicated ITEM table included).
func prepTPCCLoad() func(int) {
	ld := tpcc.Loader{Layout: tpcc.Layout{Warehouses: loadWarehouses, Partitions: 1}, Scale: tpcc.DefaultScale(), Seed: 1}
	return func(n int) {
		for ; n > 0; n-- {
			ld.Load(0, storage.NewStore())
		}
	}
}

// stubEnv is the least a concurrency control engine needs around it: a
// store, the procedure registry and pooled undo buffers, with results,
// replies and timers dropped. It mirrors partition.Partition.Execute without
// costs, replication or logging.
type stubEnv struct {
	store    *storage.Store
	undos    map[msg.TxnID]*undo.Buffer
	undoFree []*undo.Buffer
	view     storage.TxnView
}

func (e *stubEnv) Store() *storage.Store { return e.store }

func (e *stubEnv) Execute(f *msg.Fragment, withUndo bool, locker storage.Locker) core.ExecOutcome {
	var buf *undo.Buffer
	if withUndo {
		if buf = e.undos[f.Txn]; buf == nil {
			if n := len(e.undoFree); n > 0 {
				buf, e.undoFree = e.undoFree[n-1], e.undoFree[:n-1]
			} else {
				buf = undo.New()
			}
			e.undos[f.Txn] = buf
		}
	}
	view := &e.view
	if locker != nil {
		view = storage.NewTxnView(e.store, buf, locker) // fibers outlive the call
	} else {
		view.Reset(e.store, buf, nil)
	}
	out, err := (kvstore.Proc{}).Run(view, f.Work)
	if err != nil {
		panic(err)
	}
	return core.ExecOutcome{Output: out}
}

func (e *stubEnv) Rollback(id msg.TxnID) {
	if buf := e.undos[id]; buf != nil {
		buf.Rollback()
	}
}

func (e *stubEnv) Forget(id msg.TxnID) {
	if buf := e.undos[id]; buf != nil {
		buf.Discard()
		e.undoFree = append(e.undoFree, buf)
		delete(e.undos, id)
	}
}

func (*stubEnv) SendResult(*msg.Fragment, *msg.FragmentResult) {}
func (*stubEnv) ReplyClient(*msg.Fragment, *msg.ClientReply)   {}
func (*stubEnv) After(sim.Time, any)                           {}
func (*stubEnv) ChargeDecision()                               {}

// prepEngine: one 12-key fragment of a multi-partition transaction through an
// engine, then its commit decision. A lone single-partition fragment would
// take the idle fast path, which is the same code in all five engines and
// skips everything that tells them apart (undo, locks, versions, read sets).
func prepEngine(mk func(core.Env) core.Engine) func(int) {
	st, work := kvFragment()
	eng := mk(&stubEnv{store: st, undos: map[msg.TxnID]*undo.Buffer{}})
	// One fragment and one decision value serve every iteration: an engine
	// is done with both once the decision returns, and allocating them is the
	// client's and coordinator's cost, not the engine's.
	f := &msg.Fragment{Proc: kvstore.ProcName, Last: true, Work: work, MultiPartition: true, Coord: 1, Client: 2}
	d := &msg.Decision{Commit: true}
	return func(n int) {
		for ; n > 0; n-- {
			f.Txn++
			d.Txn = f.Txn
			eng.Fragment(f)
			eng.Decision(d)
		}
	}
}

func tableKeyNames() []string {
	keys := make([]string, tableKeys)
	for i := range keys {
		keys[i] = storage.Key(storage.KeyUint32(uint32(i%16)), storage.KeyUint32(uint32(i)))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func filledTable(t storage.Table) (storage.Table, []string) {
	keys := tableKeyNames()
	for _, k := range keys {
		t.Put(k, int64(0))
	}
	return t, keys
}

// prepLocks: a transaction takes 12 exclusive row locks and releases them;
// the cost is per lock.
func prepLocks() func(int) {
	lm := locks.NewManager()
	keys := tableKeyNames()
	var id msg.TxnID
	return func(n int) {
		for i := 0; i < n; i++ {
			id++
			for j := 0; j < kvKeys; j++ {
				lm.Acquire(id, locks.Key{Table: "t", Row: keys[(i*kvKeys+j)%len(keys)]}, locks.Exclusive)
			}
			lm.Release(id)
		}
	}
}

// prepRangeLocks: one shared range lock taken and released.
func prepRangeLocks() func(int) {
	lm := locks.NewManager()
	keys := tableKeyNames()
	var id msg.TxnID
	return func(n int) {
		for i := 0; i < n; i++ {
			id++
			k := keys[i%len(keys)]
			lm.Acquire(id, locks.Key{Table: "t", Row: k, Hi: storage.PrefixEnd(k), IsRange: true}, locks.Shared)
			lm.Release(id)
		}
	}
}

// prepUndo: 12 before-images recorded and rolled back into a hash table; the
// cost is per entry.
func prepUndo() func(int) {
	t, keys := filledTable(storage.NewHashTable("t"))
	buf := undo.New()
	return func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < kvKeys; j++ {
				buf.Record(undo.Entry{Target: t, Key: keys[(i*kvKeys+j)%len(keys)], Prev: int64(0), Existed: true})
			}
			buf.Rollback()
		}
	}
}

func prepTableGet(t storage.Table) func(int) {
	t, keys := filledTable(t)
	return func(n int) {
		for i := 0; i < n; i++ {
			t.Get(keys[i%len(keys)])
		}
	}
}

func prepTablePut(t storage.Table) func(int) {
	t, keys := filledTable(t)
	v := any(int64(1)) // boxed once: the cost is the table's, not the caller's
	return func(n int) {
		for i := 0; i < n; i++ {
			t.Put(keys[i%len(keys)], v)
		}
	}
}

const scanRows = 20

// prepScan: a 20-row ordered scan through a TxnView (descent plus in-order
// walk); the cost is per row.
func prepScan() func(int) {
	st := storage.NewStore()
	t, keys := filledTable(storage.NewBTreeTable("t"))
	st.AddTable(t)
	var view storage.TxnView
	return func(n int) {
		for i := 0; i < n; i++ {
			view.Reset(st, nil, nil)
			view.Scan("t", keys[i%len(keys)], "", scanRows, func(string, any) bool { return true })
		}
	}
}

// logOwner stands in for the partition that owns a command log: it appends
// when told to and acknowledges the disk's completions.
type logOwner struct {
	lg    *durable.Logger
	works []any
	next  msg.TxnID
}

func (o *logOwner) Receive(ctx *sim.Context, m sim.Message) {
	switch m := m.(type) {
	case int:
		for ; m > 0; m-- {
			o.next++
			o.lg.AppendCommitted(ctx, o.next, kvstore.ProcName, o.works, 2, nil)
		}
	case *durable.WriteDone:
		o.lg.Durable(m.Seq)
	case durable.FlushTick:
		o.lg.Flush(ctx, m.Batch)
	}
}

// prepDurableAppend: one committed 12-key invocation encoded onto the command
// log, with the group commits and disk completions it causes.
func prepDurableAppend() func(int) {
	s := sim.New()
	disk := s.Register("disk", &durable.Disk{Latency: 20 * sim.Microsecond, Bandwidth: 500 << 20})
	lg := durable.NewLogger(durable.Config{GroupCommitBytes: 4096, GroupCommitDelay: 50 * sim.Microsecond}, disk)
	_, work := kvFragment()
	owner := s.Register("owner", &logOwner{lg: lg, works: []any{work}})
	lg.Bind(owner)
	return func(n int) {
		s.SendAt(s.Now(), owner, n)
		s.Drain()
	}
}

func prepTxnDone() func(int) {
	c := metrics.NewCollector(0, 1<<62)
	return func(n int) {
		for i := 0; i < n; i++ {
			now := sim.Time(i) * sim.Microsecond
			c.TxnDone(now+300*sim.Microsecond, now, true, i%10 == 0, false, false, false)
		}
	}
}
