package replication

import (
	"fmt"
	"reflect"
	"testing"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// The takeover scenario, driven identically through both record sources. The
// primary's commit stream before the crash:
//
//	1  committed single-partition, inc a, reply kept for client C
//	2  prepared, inc b — then re-executed and re-sent as inc c (supersedes)
//	3  prepared, inc d — decided (commit) before the crash
//	4  prepared, inc e — the coordinator has not decided it at takeover
//	5  prepared, inc f — the coordinator aborted it
//
// After the takeover the coordinator answers {2 commit, 5 abort}; meanwhile
// client C re-sends transaction 1 and client D sends a new transaction 6
// (inc g); finally the late Recovery-flagged Decision commits 4, which is the
// resume point.
type streamRec struct {
	txn       msg.TxnID
	work      string
	committed bool // false: prepared
	decision  bool // a decision record for txn (commit says which)
	commit    bool
}

var takeoverStream = []streamRec{
	{txn: 1, work: "a", committed: true},
	{txn: 2, work: "b"},
	{txn: 3, work: "d"},
	{txn: 2, work: "c"},
	{txn: 3, decision: true, commit: true},
	{txn: 4, work: "e"},
	{txn: 5, work: "f"},
}

// sink records everything an actor outside the partition is sent.
type sink struct {
	name string
	out  *[]string
}

func (s *sink) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case *msg.RecoveryQuery:
		*s.out = append(*s.out, fmt.Sprintf("%s<-RecoveryQuery%v", s.name, v.Buffered))
	case *msg.ClientReply:
		*s.out = append(*s.out, fmt.Sprintf("%s<-Reply{txn=%d out=%v committed=%v}", s.name, v.Txn, v.Output, v.Committed))
	default:
		*s.out = append(*s.out, fmt.Sprintf("%s<-%T", s.name, m))
	}
}

// takeoverRun is one source's world: the scheduler, the actor under test and
// what the test observes of it.
type takeoverRun struct {
	s        *sim.Scheduler
	id       sim.ActorID
	t        *takeover
	coord    sim.ActorID
	clientC  sim.ActorID
	clientD  sim.ActorID
	out      []string
	passedOn func() []msg.TxnOutcome // outcomes handed to the role's afterResolve
}

func newTakeoverRun() (*takeoverRun, *txn.Registry, *costs.Model, *simnet.Net) {
	r := &takeoverRun{s: sim.New()}
	r.coord = r.s.Register("coordinator", &sink{"coord", &r.out})
	r.clientC = r.s.Register("client-c", &sink{"C", &r.out})
	r.clientD = r.s.Register("client-d", &sink{"D", &r.out})
	reg := txn.NewRegistry()
	reg.Register(incProc{})
	cm := costs.Default()
	return r, reg, &cm, simnet.New(cm.OneWayLatency)
}

func tableStore() *storage.Store {
	st := storage.NewStore()
	st.AddTable(storage.NewHashTable("t"))
	return st
}

func (r *takeoverRun) reply1() *msg.ClientReply {
	return &msg.ClientReply{Txn: 1, Output: int64(1), Committed: true}
}

// peerStub is a promoted backup's surviving peer: it acknowledges forwards
// (releasing the new primary's gated replies) and records relayed outcomes.
type peerStub struct {
	net     *simnet.Net
	primary sim.ActorID
	relayed []msg.TxnOutcome
}

func (p *peerStub) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case *msg.NewPrimary:
		p.primary = v.Actor
	case *msg.ReplicaForward:
		p.net.Send(ctx, p.primary, &msg.ReplicaAck{Txn: v.Txn, From: ctx.Self(), Seq: v.Seq})
	case *msg.ReplicaDecision:
		p.relayed = append(p.relayed, msg.TxnOutcome{Txn: v.Txn, Commit: v.Commit})
	}
}

// viaLink feeds the stream to a Backup as replica-link traffic and lets its
// failure detector promote it.
func viaLink(t *testing.T) *takeoverRun {
	r, reg, cm, net := newTakeoverRun()
	b := New(tableStore(), reg, cm, net)
	peer := &peerStub{net: net}
	b.Peers = []sim.ActorID{r.s.Register("peer", peer)}
	b.Primary = r.s.Register("primary", &primaryStub{})
	b.Replica, b.Heartbeat, b.Timeout = 1, 100*sim.Microsecond, sim.Millisecond
	r.id = r.s.Register("backup", b)
	r.t = &b.takeover
	r.passedOn = func() []msg.TxnOutcome { return peer.relayed }

	r.s.SendAt(0, r.id, msg.StartMonitor{})
	for i, rec := range takeoverStream {
		at := sim.Time(i + 1)
		if rec.decision {
			r.s.SendAt(at, r.id, &msg.ReplicaDecision{Txn: rec.txn, Commit: rec.commit})
			continue
		}
		fw := &msg.ReplicaForward{Txn: rec.txn, Proc: "inc", Works: []any{rec.work}, Committed: rec.committed, Seq: uint32(i + 1)}
		if rec.committed {
			fw.Client, fw.Reply = r.clientC, r.reply1()
		}
		r.s.SendAt(at, r.id, fw)
	}
	return r
}

// logOwner is the pre-crash primary as far as its command log is concerned.
type logOwner struct{ lg *durable.Logger }

func (o *logOwner) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case func(*sim.Context):
		v(ctx)
	case *durable.WriteDone:
		o.lg.Durable(v.Seq)
	case durable.FlushTick:
		o.lg.Flush(ctx, v.Batch)
	}
}

// viaLog feeds the stream to a command log through its owning primary, kills
// the primary and orders the Restarter to recover from disk.
func viaLog(t *testing.T) *takeoverRun {
	r, reg, cm, net := newTakeoverRun()
	disk := r.s.Register("disk", &durable.Disk{Latency: sim.Microsecond})
	lg := durable.NewLogger(durable.Config{GroupCommitBytes: 1, GroupCommitDelay: sim.Millisecond, DiskLatency: sim.Microsecond}, disk)
	owner := r.s.Register("primary", &logOwner{lg})
	lg.Bind(owner)
	lg.InstallInitial(tableStore())
	rs := NewRestarter(lg, reg, cm, net)
	r.id = r.s.Register("restarter", rs)
	r.t = &rs.takeover

	for i, rec := range takeoverStream {
		rec := rec
		r.s.SendAt(sim.Time(i+1), owner, func(ctx *sim.Context) {
			switch {
			case rec.decision:
				lg.AppendDecision(ctx, rec.txn, rec.commit)
			case rec.committed:
				lg.AppendCommitted(ctx, rec.txn, "inc", []any{rec.work}, r.clientC, r.reply1())
			default:
				lg.AppendPrepared(ctx, rec.txn, "inc", []any{rec.work})
			}
		})
	}
	r.s.Drain()
	preCrash := len(lg.Tail())
	if preCrash != len(takeoverStream) {
		t.Fatalf("log tail holds %d durable records before the crash, want %d", preCrash, len(takeoverStream))
	}
	r.passedOn = func() []msg.TxnOutcome {
		var out []msg.TxnOutcome
		for _, rec := range lg.Tail()[preCrash:] {
			if rec.Kind == durable.RecordDecision {
				out = append(out, msg.TxnOutcome{Txn: rec.Txn, Commit: rec.Commit})
			}
		}
		return out
	}
	r.s.Kill(owner)
	r.s.SendAt(r.s.Now(), r.id, msg.Restart{})
	return r
}

func TestTakeoverSameFromLinkAndLog(t *testing.T) {
	type observed struct {
		fingerprint   uint64
		resumedAfter  string
		bufCommitted  int
		bufDropped    int
		applied       uint64
		out, passedOn string
	}
	want := observed{
		resumedAfter: "late decision",
		bufCommitted: 2,
		bufDropped:   1,
		// Replayed: 1, 3 before the takeover; 2, 4 during it. Transaction 6
		// executes in the inner partition, not by replay.
		applied: 4,
		out: "[coord<-RecoveryQuery[2 4 5] " +
			"C<-Reply{txn=1 out=1 committed=true} " +
			"D<-Reply{txn=6 out=1 committed=true}]",
		passedOn: "[{2 true} {5 false} {4 true}]",
	}
	var got []observed
	for _, src := range []struct {
		name  string
		build func(*testing.T) *takeoverRun
	}{{"replica link", viaLink}, {"log tail", viaLog}} {
		t.Run(src.name, func(t *testing.T) {
			r := src.build(t)
			tk := r.t
			tk.Partition, tk.Coordinator = 0, r.coord
			tk.EngineFactory = func(env core.Env) core.Engine { return core.NewBlocking(env) }
			tk.Bind(r.id)
			r.s.Drain() // the takeover itself
			if tk.Promoted() == nil || !tk.Recovering() {
				t.Fatalf("after the crash: promoted=%v recovering=%v", tk.Promoted() != nil, tk.Recovering())
			}

			var o observed
			send := func(m sim.Message) {
				r.s.SendAt(r.s.Now(), r.id, m)
				r.s.Drain()
			}
			frag := func(id msg.TxnID, work string, client sim.ActorID) *msg.Fragment {
				return &msg.Fragment{Txn: id, Proc: "inc", Work: work, Last: true, Client: client, Coord: client}
			}
			steps := []struct {
				name string
				m    sim.Message
			}{
				{"recovery outcome", &msg.RecoveryOutcome{Outcomes: []msg.TxnOutcome{{Txn: 2, Commit: true}, {Txn: 5, Commit: false}}}},
				{"client resend", frag(1, "a", r.clientC)},
				{"new transaction", frag(6, "g", r.clientD)},
				{"stale recovery decision", &msg.Decision{Txn: 99, Commit: true, Recovery: true}},
				{"late decision", &msg.Decision{Txn: 4, Commit: true, Recovery: true}},
			}
			for _, st := range steps {
				send(st.m)
				if !tk.Recovering() && o.resumedAfter == "" {
					o.resumedAfter = st.name
				}
			}
			if n := tk.BufferedLen(); n != 0 {
				t.Errorf("%d transactions still buffered", n)
			}
			for k, n := range map[string]int64{"a": 1, "b": 0, "c": 1, "d": 1, "e": 1, "f": 0, "g": 1} {
				v, _ := tk.Store.Table("t").Get(k)
				if v == nil {
					v = int64(0)
				}
				if v.(int64) != n {
					t.Errorf("%s = %v, want %d", k, v, n)
				}
			}
			o.fingerprint = tk.Store.Fingerprint()
			o.bufCommitted, o.bufDropped, o.applied = tk.bufCommitted, tk.bufDropped, tk.Applied
			o.out = fmt.Sprint(r.out)
			o.passedOn = fmt.Sprint(r.passedOn())
			w := want
			w.fingerprint = o.fingerprint
			if o != w {
				t.Errorf("observed\n%+v\nwant\n%+v", o, w)
			}
			got = append(got, o)
		})
	}
	if len(got) == 2 && !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("the two record sources diverge:\nlink: %+v\nlog:  %+v", got[0], got[1])
	}
}
