// Package client implements the client library of §3.1: it routes
// single-partition transactions directly to the owning partition, sends
// multi-partition transactions through the central coordinator (blocking and
// speculative schemes), or coordinates them itself with 2PC (locking scheme,
// §4.3: "clients send multi-partition transactions directly to the
// partitions, without going through the central coordinator").
//
// Clients run in one of two load models. Closed-loop — the paper's §5
// methodology — issues one request, waits for the response, then issues
// another. Open-loop decouples arrivals from service: requests arrive on a
// deterministic Poisson or uniform interarrival process regardless of how
// fast the cluster responds, up to a bounded in-flight window per client;
// arrivals beyond the window wait in a bounded pending queue and are shed
// (counted, never silently dropped) when that overflows. Open-loop is the
// regime where tail latency under overload is visible — a closed-loop client
// slows its own arrival rate exactly when the system is slowest.
//
// Transactions killed as deadlock or timeout victims are retried
// transparently with a fresh transaction ID in both models.
package client

import (
	"fmt"
	"math/rand"

	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// Start kicks a client into its issue loop (closed-loop) or starts its
// arrival process (open-loop). It is idempotent.
type Start struct{}

// Process selects how open-loop interarrival gaps are drawn.
type Process int

// Arrival processes.
const (
	// Poisson draws exponential interarrival gaps — the memoryless arrival
	// stream of millions of independent users.
	Poisson Process = iota
	// Uniform spaces arrivals exactly Mean apart (a paced load generator).
	Uniform
)

// Arrival configures one client's open-loop arrival process. A nil Arrival
// on the Client selects the closed loop.
type Arrival struct {
	// Mean is the mean interarrival gap for this client.
	Mean sim.Time
	// Process selects Poisson (default) or Uniform gaps.
	Process Process
	// Window bounds how many of this client's transactions may be in
	// flight simultaneously (>= 1).
	Window int
	// Queue bounds how many arrivals may wait for a window slot; arrivals
	// beyond it are shed (metrics.Counts.Shed).
	Queue int
	// Phase delays the first arrival, staggering uniform clients so the
	// aggregate stream is evenly spaced rather than a thundering herd.
	Phase sim.Time
}

// tick is the client's arrival timer. Each client keeps exactly one tick in
// flight and reuses the same message value for every arrival, so the arrival
// process allocates nothing per event.
type tick struct {
	at sim.Time
}

// Client is one client actor: closed-loop by default, open-loop when
// Arrival is set.
type Client struct {
	Registry    *txn.Registry
	Catalog     *txn.Catalog
	Costs       *costs.Model
	Net         *simnet.Net
	Metrics     *metrics.Collector
	Scheme      core.Scheme
	Coordinator sim.ActorID
	// Parts maps PartitionID to the primary's actor ID. Each client owns
	// its copy: re-targeting after a failover is a per-client event,
	// delivered by the coordinator's NewPrimary broadcast.
	Parts []sim.ActorID
	Gen   workload.Generator
	Index int
	// Arrival, when non-nil, runs the client open-loop.
	Arrival *Arrival
	// OnComplete, when set, observes every completed transaction
	// (scripted/example use).
	OnComplete func(inv *txn.Invocation, reply *msg.ClientReply)

	self sim.ActorID
	rng  *rand.Rand
	seq  uint32
	// inflight holds the outstanding attempts in issue order: at most one
	// closed-loop, at most Arrival.Window open-loop.
	inflight []*attempt
	// pending holds open-loop arrival times waiting for a window slot.
	pending []sim.Time
	free    []*attempt
	tickMsg tick
	armed   bool
	// tickLive tracks whether an arrival tick is in flight; the chain ends
	// when the generator exhausts and is re-armed by Start after a
	// SetGenerator cleared done (workload phase swaps).
	tickLive bool
	done     bool
	paused   bool
	// Issued counts attempts; Completed counts finished transactions; Shed
	// counts open-loop arrivals dropped by a full window and queue.
	Issued    uint64
	Completed uint64
	Shed      uint64
}

type attempt struct {
	inv   *txn.Invocation
	plan  txn.Plan
	id    msg.TxnID
	start sim.Time // arrival/first-issue time (latency includes retries and queueing)
	mp    *mpDrive
	// tries counts consecutive kills of this attempt, driving the
	// optimistic schemes' retry backoff.
	tries int
}

// retryMsg is a delayed reissue of a killed attempt. The id guards against
// firing on a recycled attempt: release zeroes the attempt and issue assigns
// a fresh transaction ID, so a stale timer can never match.
type retryMsg struct {
	a  *attempt
	id msg.TxnID
}

// mpDrive is the client-side 2PC driver state (locking scheme).
type mpDrive struct {
	round   int
	results map[msg.PartitionID]*msg.FragmentResult
	prior   []msg.FragmentResult
	decided bool
}

// Bind sets identity and seeds the client's RNG.
func (c *Client) Bind(self sim.ActorID, seed int64) {
	c.self = self
	c.rng = rand.New(rand.NewSource(seed))
}

// open reports whether the client runs open-loop.
func (c *Client) open() bool { return c.Arrival != nil }

// Idle reports whether the client has no transaction in flight. A
// closed-loop idle client resumes only when sent a fresh Start message; an
// open-loop client may still hold pending arrivals that issue when resumed.
func (c *Client) Idle() bool { return len(c.inflight) == 0 }

// InFlight returns the number of outstanding transactions.
func (c *Client) InFlight() int { return len(c.inflight) }

// Pending returns the number of open-loop arrivals waiting for a window
// slot.
func (c *Client) Pending() int { return len(c.pending) }

// SetGenerator swaps the workload generator. The swap takes effect at the
// client's next issue; in-flight transactions are unaffected.
// Callers changing workload phases mid-run use this together with Start for
// clients that had already gone idle.
func (c *Client) SetGenerator(g workload.Generator) {
	c.Gen = g
	c.done = false
}

// Pause makes the client stop issuing: closed-loop it goes idle at its next
// issue point, open-loop its arrivals queue (and shed past the queue bound)
// instead of issuing; in-flight transactions run to completion either way.
// Draining every client this way brings the whole cluster to a quiescent
// point — the engine-swap precondition of adaptive scheme switching.
func (c *Client) Pause() { c.paused = true }

// Resume clears a Pause. The caller restarts the client with a Start
// message; until then it stays idle (open-loop arrivals keep queueing).
func (c *Client) Resume() { c.paused = false }

// Receive drives the client.
func (c *Client) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case Start:
		c.start(ctx)
	case *tick:
		c.arrive(ctx, v.at)
	case *msg.ClientReply:
		a := c.lookup(v.Txn)
		if a == nil {
			return // stale reply from an abandoned attempt
		}
		ctx.Spend(c.Costs.ClientMessage)
		c.complete(ctx, a, v)
	case *msg.FragmentResult:
		ctx.Spend(c.Costs.ClientMessage)
		c.mpResult(ctx, v)
	case *msg.NewPrimary:
		ctx.Spend(c.Costs.ClientMessage)
		c.newPrimary(ctx, v)
	case *retryMsg:
		if v.a.id == v.id && c.lookup(v.id) == v.a {
			c.issue(ctx, v.a)
		}
	default:
		panic(fmt.Sprintf("client: unexpected message %T", m))
	}
}

// start handles Start idempotently: a duplicate Start (a workload swap
// re-kicking a client whose original Start is still queued) must not abandon
// in-flight transactions.
func (c *Client) start(ctx *sim.Context) {
	if !c.open() {
		if len(c.inflight) == 0 {
			c.issueNext(ctx)
		}
		return
	}
	switch {
	case !c.armed:
		c.armed = true
		at := ctx.Now() + c.Arrival.Phase
		if c.Arrival.Process == Poisson {
			at += c.gap()
		}
		c.scheduleTick(ctx, at)
	case !c.tickLive && !c.done:
		// The tick chain ended on generator exhaustion and SetGenerator
		// cleared done: restart the arrival process from now.
		c.scheduleTick(ctx, ctx.Now()+c.gap())
	}
	c.drainPending(ctx)
}

// gap draws one interarrival gap.
func (c *Client) gap() sim.Time {
	if c.Arrival.Process == Uniform {
		return c.Arrival.Mean
	}
	return sim.Time(c.rng.ExpFloat64() * float64(c.Arrival.Mean))
}

// scheduleTick arms the single reused arrival timer for the given absolute
// time.
func (c *Client) scheduleTick(ctx *sim.Context, at sim.Time) {
	c.tickMsg.at = at
	c.tickLive = true
	ctx.SendAt(at, c.self, &c.tickMsg)
}

// arrive handles one open-loop arrival: issue within the window, queue
// within the bound, shed beyond it — and schedule the next arrival. The
// arrival clock is the scheduled tick time, not the actor's busy-adjusted
// local clock, so the offered load is independent of client CPU.
func (c *Client) arrive(ctx *sim.Context, at sim.Time) {
	if c.done {
		c.tickLive = false
		return // generator exhausted: the arrival process stops
	}
	switch {
	case !c.paused && len(c.inflight) < c.Arrival.Window:
		c.issueArrival(ctx, at)
	case len(c.pending) < c.Arrival.Queue:
		c.pending = append(c.pending, at)
	default:
		c.shed(at)
	}
	if c.done {
		c.tickLive = false
		return
	}
	c.scheduleTick(ctx, at+c.gap())
}

// shed counts one dropped arrival (full window and queue, or an arrival
// stranded in the queue when the generator exhausted).
func (c *Client) shed(at sim.Time) {
	c.Shed++
	c.Metrics.NoteShed(at)
}

// drainPending issues queued arrivals while window slots are free.
func (c *Client) drainPending(ctx *sim.Context) {
	if !c.open() || c.paused || c.done {
		return
	}
	for len(c.pending) > 0 && len(c.inflight) < c.Arrival.Window {
		at := c.pending[0]
		n := copy(c.pending, c.pending[1:])
		c.pending = c.pending[:n]
		c.issueArrival(ctx, at)
	}
}

// lookup finds the in-flight attempt for a transaction ID.
func (c *Client) lookup(id msg.TxnID) *attempt {
	for _, a := range c.inflight {
		if a.id == id {
			return a
		}
	}
	return nil
}

// newAttempt recycles an attempt from the freelist.
func (c *Client) newAttempt() *attempt {
	if n := len(c.free); n > 0 {
		a := c.free[n-1]
		c.free = c.free[:n-1]
		return a
	}
	return &attempt{}
}

// release returns a completed attempt to the freelist.
func (c *Client) release(a *attempt) {
	for i, x := range c.inflight {
		if x == a {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			break
		}
	}
	*a = attempt{}
	c.free = append(c.free, a)
}

// newPrimary re-targets a failed-over partition and resends any in-flight
// single-partition attempt that was addressed to it — same transaction ID,
// so the promoted primary can deduplicate it if the original execution
// survived in the replica stream but the reply died with the old primary.
// Multi-partition attempts need no action: the coordinator resolves them
// (aborting unrecoverable ones with retryable replies).
func (c *Client) newPrimary(ctx *sim.Context, v *msg.NewPrimary) {
	c.Parts[v.Partition] = v.Actor
	for _, a := range c.inflight {
		if a.mp != nil || len(a.plan.Parts) != 1 || a.plan.Parts[0] != v.Partition {
			continue
		}
		c.Metrics.NoteResend()
		c.sendSP(ctx, a)
	}
}

// issueNext pulls the next invocation from the generator (closed loop).
func (c *Client) issueNext(ctx *sim.Context) {
	if c.paused {
		return // paused: hold at the issue point until resumed
	}
	inv := c.Gen.Next(c.Index, c.rng)
	if inv == nil {
		return // generator exhausted: client stops
	}
	c.admit(ctx, inv, ctx.Now())
}

// issueArrival pulls the next invocation for an open-loop arrival. Latency
// is measured from the arrival time, so window/queue wait — the overload
// signal — counts.
func (c *Client) issueArrival(ctx *sim.Context, at sim.Time) {
	inv := c.Gen.Next(c.Index, c.rng)
	if inv == nil {
		c.done = true
		// Arrivals stranded in the queue will never be served: count them
		// as shed — arrival accounting must never drop silently.
		for _, p := range c.pending {
			c.shed(p)
		}
		c.pending = c.pending[:0]
		return
	}
	c.admit(ctx, inv, at)
}

// admit plans an invocation, registers the attempt and issues it.
func (c *Client) admit(ctx *sim.Context, inv *txn.Invocation, start sim.Time) {
	proc := c.Registry.Get(inv.Proc)
	a := c.newAttempt()
	a.inv = inv
	a.plan = proc.Plan(inv.Args, c.Catalog)
	a.start = start
	c.inflight = append(c.inflight, a)
	c.issue(ctx, a)
}

// issue starts (or restarts, after a kill) an attempt.
func (c *Client) issue(ctx *sim.Context, a *attempt) {
	c.seq++
	c.Issued++
	a.id = msg.MakeTxnID(c.self, c.seq)
	a.mp = nil
	if len(a.plan.Parts) == 1 {
		c.sendSP(ctx, a)
		return
	}
	if c.Scheme == core.SchemeLocking {
		a.mp = &mpDrive{results: make(map[msg.PartitionID]*msg.FragmentResult)}
		c.sendRound(ctx, a)
		return
	}
	req := &msg.Request{
		Txn:      a.id,
		Proc:     a.inv.Proc,
		Args:     a.inv.Args,
		Client:   c.self,
		Parts:    a.plan.Parts,
		CanAbort: a.plan.CanAbort,
		ReadOnly: a.plan.ReadOnly,
		AbortAt:  a.inv.AbortAt,
	}
	ctx.Spend(c.Costs.ClientMessage)
	c.Net.Send(ctx, c.Coordinator, req)
}

// sendSP sends (or, after a failover, resends) a single-partition attempt's
// one fragment under its current transaction ID.
func (c *Client) sendSP(ctx *sim.Context, a *attempt) {
	p := a.plan.Parts[0]
	f := &msg.Fragment{
		Txn:       a.id,
		Proc:      a.inv.Proc,
		Round:     0,
		Last:      true,
		Work:      a.plan.Work[p],
		Partition: p,
		Coord:     c.self,
		Client:    c.self,
		CanAbort:  a.plan.CanAbort,
		ReadOnly:  a.plan.ReadOnly,
		Scans:     a.plan.Scans[p],
	}
	if a.inv.AbortAt == p {
		f.InjectAbort = true
	}
	ctx.Spend(c.Costs.ClientMessage)
	c.Net.Send(ctx, c.Parts[p], f)
}

// sendRound dispatches an attempt's current 2PC round (locking scheme).
func (c *Client) sendRound(ctx *sim.Context, a *attempt) {
	last := a.mp.round == a.plan.Rounds-1
	var work map[msg.PartitionID]any
	if a.mp.round == 0 {
		work = a.plan.Work
	} else {
		proc := c.Registry.Get(a.inv.Proc)
		work = proc.Continue(a.inv.Args, a.mp.round, a.mp.prior, c.Catalog)
	}
	for _, p := range a.plan.Parts {
		f := &msg.Fragment{
			Txn:            a.id,
			Proc:           a.inv.Proc,
			Round:          a.mp.round,
			Last:           last,
			Work:           work[p],
			Partition:      p,
			Coord:          c.self,
			Client:         c.self,
			MultiPartition: true,
			CanAbort:       a.plan.CanAbort,
			ReadOnly:       a.plan.ReadOnly,
			Scans:          a.plan.Scans[p],
		}
		if a.mp.round == 0 && a.inv.AbortAt == p {
			f.InjectAbort = true
		}
		ctx.Spend(c.Costs.ClientMessage)
		c.Net.Send(ctx, c.Parts[p], f)
	}
}

// mpResult advances the client-driven 2PC.
func (c *Client) mpResult(ctx *sim.Context, r *msg.FragmentResult) {
	a := c.lookup(r.Txn)
	if a == nil || a.mp == nil || a.mp.decided {
		return // stale result from an aborted attempt
	}
	if r.Aborted {
		// First no-vote aborts the transaction at every participant.
		a.mp.decided = true
		c.decide(ctx, a, false)
		if r.Killed {
			// Deadlock/timeout victim: retry with a fresh ID.
			c.Metrics.Retry(ctx.Now())
			c.issue(ctx, a)
			return
		}
		c.finish(ctx, a, &msg.ClientReply{Txn: a.id, Committed: false, UserAborted: true})
		return
	}
	a.mp.results[r.Partition] = r
	if len(a.mp.results) < len(a.plan.Parts) {
		return
	}
	if a.mp.round < a.plan.Rounds-1 {
		for _, p := range a.plan.Parts {
			a.mp.prior = append(a.mp.prior, *a.mp.results[p])
		}
		a.mp.round++
		a.mp.results = make(map[msg.PartitionID]*msg.FragmentResult)
		c.sendRound(ctx, a)
		return
	}
	// All votes are yes: commit.
	a.mp.decided = true
	final := make([]msg.FragmentResult, 0, len(a.plan.Parts))
	for _, p := range a.plan.Parts {
		final = append(final, *a.mp.results[p])
	}
	c.decide(ctx, a, true)
	proc := c.Registry.Get(a.inv.Proc)
	c.finish(ctx, a, &msg.ClientReply{Txn: a.id, Committed: true, Output: proc.Output(a.inv.Args, final)})
}

// decide broadcasts the 2PC decision.
func (c *Client) decide(ctx *sim.Context, a *attempt, commit bool) {
	for _, p := range a.plan.Parts {
		ctx.Spend(c.Costs.ClientMessage)
		c.Net.Send(ctx, c.Parts[p], &msg.Decision{Txn: a.id, Commit: commit})
	}
}

// complete handles a reply for an in-flight attempt.
func (c *Client) complete(ctx *sim.Context, a *attempt, r *msg.ClientReply) {
	if r.Retryable {
		c.Metrics.Retry(ctx.Now())
		if d := c.retryDelay(a); d > 0 {
			ctx.SendAt(ctx.Now()+d, c.self, &retryMsg{a: a, id: a.id})
			return
		}
		c.issue(ctx, a)
		return
	}
	c.finish(ctx, a, r)
}

// retryBackoffBase is the first reissue delay after an MVCC or OCC kill,
// roughly one single-partition execution.
const retryBackoffBase = 50 * sim.Microsecond

// retryDelay spaces consecutive reissues of a killed attempt under the
// optimistic schemes: exponential growth with a deterministic per-client
// jitter. Without it, transactions killed in the same event retry in the
// same event, re-conflict identically and livelock — the simulation is
// deterministic, so lockstep never breaks on its own. Locking needs no
// backoff (its lock queues make a retrier wait for the winner instead of
// re-killing it), and keeping its path untouched preserves every existing
// locking trace bit-for-bit.
func (c *Client) retryDelay(a *attempt) sim.Time {
	switch c.Scheme {
	case core.SchemeMVCC, core.SchemeOCC:
	default:
		return 0
	}
	a.tries++
	shift := a.tries - 1
	if shift > 4 {
		shift = 4
	}
	jitter := splitmix64(uint64(c.self)<<32^uint64(c.seq)) % uint64(retryBackoffBase)
	return retryBackoffBase<<shift + sim.Time(jitter)
}

// splitmix64 is the SplitMix64 finalizer — a deterministic bit mixer for
// retry jitter, independent of the workload RNG stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// finish records the completion and feeds the load loop: closed-loop issues
// the next transaction, open-loop promotes queued arrivals into the freed
// window slot.
func (c *Client) finish(ctx *sim.Context, a *attempt, r *msg.ClientReply) {
	c.Completed++
	c.Metrics.TxnDone(ctx.Now(), a.start, r.Committed, len(a.plan.Parts) > 1, a.plan.Rounds > 1, a.plan.ReadOnly, len(a.plan.Scans) > 0)
	if c.OnComplete != nil {
		c.OnComplete(a.inv, r)
	}
	c.release(a)
	if c.open() {
		c.drainPending(ctx)
		return
	}
	c.issueNext(ctx)
}
