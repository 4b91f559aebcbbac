package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Sharded deterministic runtime: N event loops over disjoint actor groups,
// synchronized by conservative time-window barriers.
//
// Every actor is assigned to exactly one shard; a shard owns a private 4-ary
// event heap and clock and delivers its actors' events on one goroutine at a
// time. Execution proceeds in windows [low, low+Horizon): the shards deliver
// their events with at < bound in parallel — the goroutine that called Run
// runs shards itself and up to width−1 helpers take the rest (see
// runHelpFirst) — then a barrier exchanges the cross-shard sends produced
// during the window, and the next window begins.
// A cross-shard send executed inside a window starting at W departs at local
// time >= W and travels with latency >= Horizon, so it arrives at >= W +
// Horizon — at or after the bound — and is always merged at the barrier
// before any shard could need it. The runtime enforces this lookahead
// invariant with a panic, so a mis-tuned Horizon fails loudly instead of
// silently reordering.
//
// Determinism does not depend on the number of shards. Events are keyed
// (at, src, srcSeq): the delivery time, the sending actor, and that sender's
// own send counter. The key is a total order (srcSeq is unique per sender)
// that is computed entirely from per-actor state, so it is identical at
// every width — unlike the single-threaded Scheduler's (at, globalSeq) key,
// whose global counter reflects one particular interleaving. Because heap
// pop order is purely key-determined, the order in which the barrier pushes
// exchanged events is irrelevant, and a run with Shards=1 is bit-identical
// to the same run with Shards=N. External injections (SendAt, KillAt) use
// src = NoActor with a scheduler-level counter that only advances between
// drive calls, which is width-independent by construction.
type ShardedScheduler struct {
	width   int
	horizon Time
	shards  []shard
	actors  []shardActor // index = ActorID-1
	injSeq  uint64       // sequence for src = NoActor injections
	// low is the exclusive upper bound of virtual time processed so far:
	// every event with at < low has been delivered. The next window is
	// [low, low+horizon), clipped to the drive call's until.
	low      Time
	stopped  bool
	stopReq  atomic.Bool
	inWindow bool // true while a window's shards are running

	// Help-first window state at width > 1; see runHelpFirst.
	claim      atomic.Int32  // next shard index of the window to hand out
	unfinished atomic.Int32  // unfinished shards of the window, plus the caller's ticket
	done       chan struct{} // wakes the parked caller; capacity 1

	barriers  uint64
	crossMsgs uint64
}

// shardEvent is a scheduled delivery keyed (at, src, seq) — see the type
// comment on ShardedScheduler for why this key is width-independent.
type shardEvent struct {
	at   Time
	src  ActorID // sending actor, or NoActor for external injections
	seq  uint64  // per-sender sequence (or the injection sequence)
	to   ActorID
	msg  Message
	kill bool // kill marker: mark the destination dead instead of delivering
}

func (a *shardEvent) before(b *shardEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

type shardActor struct {
	handler   Handler
	name      string
	shard     int32
	dead      bool
	busyUntil Time
	busyTotal Time
	sendSeq   uint64 // stamps this actor's outgoing events
	pending   int    // events queued for this actor (in its shard's heap)
}

// shard is one event loop: a heap, a clock, and the Context its actors see.
// During a window it is owned exclusively by the goroutine that claimed it;
// between windows the goroutine that called Run owns all shards (the atomic
// claim and unfinished counters establish the happens-before edges).
type shard struct {
	h         shardHeap
	now       Time
	bound     Time // current window's exclusive bound, set before the window
	delivered uint64
	dropped   uint64
	live      int // queued events destined for live actors of this shard
	outbox    [][]shardEvent
	ctx       Context
	kern      shardKernel
	popped    int // events popped in the last window, for Run's total
	panicked  any // handler panic captured in the last window
}

type shardKernel struct {
	s  *ShardedScheduler
	si int
}

// NewSharded returns a sharded runtime with the given width and window
// horizon. The horizon must be positive and no larger than the minimum
// cross-shard message latency; violations surface as lookahead panics at the
// first offending send. Width 1 runs the identical windowed algorithm
// without goroutines and is the determinism baseline for every other width.
func NewSharded(width int, horizon Time) *ShardedScheduler {
	if width < 1 {
		panic("sim: NewSharded width must be >= 1")
	}
	if horizon <= 0 {
		panic("sim: NewSharded horizon must be positive")
	}
	s := &ShardedScheduler{width: width, horizon: horizon, shards: make([]shard, width),
		done: make(chan struct{}, 1)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.kern = shardKernel{s: s, si: i}
		sh.ctx.k = &sh.kern
		sh.outbox = make([][]shardEvent, width)
	}
	return s
}

// NumShards returns the configured width.
func (s *ShardedScheduler) NumShards() int { return s.width }

// Horizon returns the window length.
func (s *ShardedScheduler) Horizon() Time { return s.horizon }

// Barriers returns the number of window barriers executed so far. The window
// sequence is a function of event times only, so the count is identical at
// every width.
func (s *ShardedScheduler) Barriers() uint64 { return s.barriers }

// CrossShardMsgs returns the number of events exchanged between shards at
// barriers. Unlike Barriers this depends on placement and width (width 1
// exchanges nothing), so it is observability, not part of the deterministic
// result surface.
func (s *ShardedScheduler) CrossShardMsgs() uint64 { return s.crossMsgs }

// Register adds an actor on shard 0 and returns its ID. Use Assign to place
// it before any events are scheduled.
func (s *ShardedScheduler) Register(name string, h Handler) ActorID {
	s.actors = append(s.actors, shardActor{handler: h, name: name})
	return ActorID(len(s.actors))
}

func (s *ShardedScheduler) actor(id ActorID) *shardActor {
	if id <= 0 || int(id) > len(s.actors) {
		panicUnknownActor(id)
	}
	return &s.actors[id-1]
}

// Assign places an actor on a shard. Placement must happen before any event
// is scheduled for the actor: events already queued would sit in the wrong
// heap.
func (s *ShardedScheduler) Assign(id ActorID, shard int) {
	if shard < 0 || shard >= s.width {
		panic("sim: Assign shard out of range")
	}
	a := s.actor(id)
	if a.pending != 0 {
		panic("sim: Assign after events were scheduled for the actor")
	}
	a.shard = int32(shard)
}

// Handler returns the handler registered for id.
func (s *ShardedScheduler) Handler(id ActorID) Handler { return s.actor(id).handler }

// Name returns the name the actor was registered with.
func (s *ShardedScheduler) Name(id ActorID) string { return s.actor(id).name }

// BusyTime returns the total virtual CPU time the actor has consumed.
func (s *ShardedScheduler) BusyTime(id ActorID) Time { return s.actor(id).busyTotal }

// NumActors returns the number of registered actors.
func (s *ShardedScheduler) NumActors() int { return len(s.actors) }

// Now returns the latest delivery time across all shards — the delivery time
// of the most recent event in virtual order, identical at every width.
func (s *ShardedScheduler) Now() Time {
	var t Time
	for i := range s.shards {
		if s.shards[i].now > t {
			t = s.shards[i].now
		}
	}
	return t
}

// Stop makes Run and Step return without processing further events. During a
// windowed Run the stop takes effect at the next barrier: the current window
// always completes on every shard, which keeps the stop point — and
// therefore the whole run — independent of the number of shards.
func (s *ShardedScheduler) Stop() { s.stopReq.Store(true) }

// Resume clears a Stop.
func (s *ShardedScheduler) Resume() {
	s.stopped = false
	s.stopReq.Store(false)
}

// Stopped reports whether the runtime is stopped.
func (s *ShardedScheduler) Stopped() bool { return s.stopped || s.stopReq.Load() }

// Kill marks an actor dead, as Scheduler.Kill does. It may be called between
// drive calls or from a same-shard handler (via Context.Kill); cross-shard
// kills during a window must be pre-registered with KillAt.
func (s *ShardedScheduler) Kill(id ActorID) {
	a := s.actor(id)
	if a.dead {
		return
	}
	a.dead = true
	s.shards[a.shard].live -= a.pending
}

// Alive reports whether the actor has not been killed.
func (s *ShardedScheduler) Alive(id ActorID) bool { return !s.actor(id).dead }

// SendAt schedules msg for delivery at the given time (external injection).
// Times below the processed horizon are clamped to it, mirroring the plain
// scheduler's clamp to now.
func (s *ShardedScheduler) SendAt(at Time, to ActorID, msg Message) {
	a := s.actor(to)
	if at < s.low {
		at = s.low
	}
	s.injSeq++
	s.shards[a.shard].push(shardEvent{at: at, src: NoActor, seq: s.injSeq, to: to, msg: msg}, a)
}

// KillAt schedules a fail-stop crash of an actor at an absolute virtual
// time. The kill is an event in the victim's own shard, ordered before any
// same-time deliveries from live senders (external injections sort first at
// equal times), so a statically scheduled crash lands identically at every
// width. This is how fault schedules are installed on the sharded runtime,
// replacing the plain path's synchronous Kill from the fault controller.
func (s *ShardedScheduler) KillAt(at Time, id ActorID) {
	a := s.actor(id)
	if at < s.low {
		at = s.low
	}
	s.injSeq++
	s.shards[a.shard].push(shardEvent{at: at, src: NoActor, seq: s.injSeq, to: id, kill: true}, a)
}

// push enqueues an event, maintaining the destination's pending count and
// the destination shard's live count. The caller must own the destination
// shard (its own shard during a window, or any shard between windows).
func (sh *shard) push(e shardEvent, a *shardActor) {
	a.pending++
	if !a.dead {
		sh.live++
	}
	sh.h.push(e)
}

// Empty reports whether no events remain queued on any shard. Outboxes are
// always drained at barriers, so between drive calls the heaps are the whole
// state.
func (s *ShardedScheduler) Empty() bool {
	for i := range s.shards {
		if s.shards[i].h.Len() != 0 {
			return false
		}
	}
	return true
}

// Pending returns the number of queued events destined for live actors,
// summed over shards in O(width).
func (s *ShardedScheduler) Pending() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}

// DeliveredCount returns the total events delivered across shards. Kill
// markers are internal and never counted, so the total matches the plain
// scheduler's accounting.
func (s *ShardedScheduler) DeliveredCount() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].delivered
	}
	return n
}

// DroppedCount returns the total events dropped on dead actors.
func (s *ShardedScheduler) DroppedCount() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].dropped
	}
	return n
}

// ShardBusy returns the summed virtual busy time of each shard's actors —
// the per-shard load-balance view the facade reports.
func (s *ShardedScheduler) ShardBusy() []Time {
	out := make([]Time, s.width)
	for i := range s.actors {
		a := &s.actors[i]
		out[a.shard] += a.busyTotal
	}
	return out
}

// send implements kernel for one shard. Intra-shard sends (and all sends
// while no window is running, e.g. under Step) go straight into the
// destination heap; cross-shard sends during a window are buffered in the
// outbox after the lookahead check and merged at the barrier.
func (k *shardKernel) send(from ActorID, at Time, to ActorID, msg Message) {
	s := k.s
	a := s.actor(to)
	sh := &s.shards[k.si]
	if at < sh.now {
		at = sh.now
	}
	src := &s.actors[from-1]
	src.sendSeq++
	e := shardEvent{at: at, src: from, seq: src.sendSeq, to: to, msg: msg}
	dst := int(a.shard)
	if dst == k.si || !s.inWindow {
		s.shards[dst].push(e, a)
		return
	}
	if at < sh.bound {
		panic("sim: cross-shard send from " + src.name + " to " + a.name +
			" arrives before the window bound; Horizon exceeds the minimum cross-shard latency")
	}
	sh.outbox[dst] = append(sh.outbox[dst], e)
}

func (k *shardKernel) kill(id ActorID) {
	s := k.s
	a := s.actor(id)
	if s.inWindow && int(a.shard) != k.si {
		panic("sim: cross-shard Kill of " + a.name + " during a window; pre-register it with KillAt")
	}
	s.Kill(id)
}

func (k *shardKernel) stop() { k.s.stopReq.Store(true) }

// minPending returns the earliest queued event time across shards.
func (s *ShardedScheduler) minPending() (Time, bool) {
	var t Time
	found := false
	for i := range s.shards {
		if e, ok := s.shards[i].h.peek(); ok && (!found || e.at < t) {
			t, found = e.at, true
		}
	}
	return t, found
}

// runWindow delivers every queued event with at < bound on one shard, in
// (at, src, seq) order, including events generated during the window that
// still fall inside it. It returns the number of events popped (delivered or
// dropped), excluding kill markers.
func (s *ShardedScheduler) runWindow(si int, bound Time) int {
	sh := &s.shards[si]
	n := 0
	for {
		e, ok := sh.h.peek()
		if !ok || e.at >= bound {
			return n
		}
		sh.h.pop()
		a := &s.actors[e.to-1]
		a.pending--
		if !a.dead {
			sh.live--
		}
		if e.kill {
			sh.now = e.at
			if !a.dead {
				a.dead = true
				sh.live -= a.pending
			}
			continue
		}
		s.deliverOn(sh, e, a)
		n++
	}
}

// deliverOn dispatches one popped event, mirroring Scheduler.deliver's
// busy-until semantics exactly.
func (s *ShardedScheduler) deliverOn(sh *shard, e shardEvent, a *shardActor) {
	sh.now = e.at
	if a.dead {
		sh.dropped++
		return
	}
	start := e.at
	if a.busyUntil > start {
		start = a.busyUntil
	}
	sh.ctx.self = e.to
	sh.ctx.local = start
	a.handler.Receive(&sh.ctx, e.msg)
	a.busyUntil = sh.ctx.local
	a.busyTotal += sh.ctx.local - start
	sh.delivered++
}

// exchange drains every outbox into the destination heaps. Heap order is
// purely key-determined, so insertion order does not matter; the lookahead
// invariant was already checked at send time.
func (s *ShardedScheduler) exchange() {
	moved := uint64(0)
	for si := range s.shards {
		sh := &s.shards[si]
		for di := range sh.outbox {
			box := sh.outbox[di]
			for i := range box {
				s.shards[di].push(box[i], &s.actors[box[i].to-1])
				box[i] = shardEvent{} // release the Message reference
			}
			sh.outbox[di] = box[:0]
			moved += uint64(len(box))
		}
	}
	s.crossMsgs += moved
}

// Run processes events in windows until the queue is empty, the next event's
// delivery time exceeds until, or Stop is called (taking effect at a window
// boundary). It returns the number of events processed. The window sequence
// — and therefore every observable outcome — is identical at every width.
//
// At width > 1 Run starts width−1 helper goroutines that live until it
// returns, normally or by re-raising a handler panic.
func (s *ShardedScheduler) Run(until Time) int {
	if s.stopped || s.stopReq.Load() {
		s.stopped = true
		return 0
	}
	total := 0
	var wake []chan struct{}
	if s.width > 1 {
		var helpers sync.WaitGroup
		wake = make([]chan struct{}, s.width-1)
		for i := range wake {
			wake[i] = make(chan struct{}, 1)
			helpers.Add(1)
			go s.helper(wake[i], &helpers)
		}
		defer func() {
			for _, w := range wake {
				close(w)
			}
			helpers.Wait()
		}()
	}
	for {
		t, ok := s.minPending()
		if !ok || t > until {
			break
		}
		if t > s.low {
			s.low = t // skip idle gaps window-aligned to the next event
		}
		bound := s.low + s.horizon
		if until < bound-1 {
			bound = until + 1 // clip the final window so at == until is included
		}
		s.barriers++
		for i := range s.shards {
			s.shards[i].bound = bound
		}
		if s.width == 1 {
			total += s.runWindow(0, bound)
		} else {
			n, pan := s.runHelpFirst(wake)
			total += n
			if pan != nil {
				panic(pan)
			}
			s.exchange()
		}
		s.low = bound
		if s.stopReq.Load() {
			s.stopped = true
			break
		}
	}
	return total
}

// runHelpFirst runs one window at width > 1 and returns the events popped
// and the panic of the lowest-index shard that panicked, if any.
//
// Windows are short — a few events per shard — so the calling goroutine
// does not hand them off and wait: it publishes the window, wakes the
// helpers without blocking, and then claims and runs shards itself until
// none is left. A helper claims only what the caller has not reached yet; one
// that wakes after every shard is claimed finds nothing and goes back to
// sleep. The caller parks only if a helper still runs a claimed shard.
//
// The claim index and the unfinished count carry every happens-before edge:
// the caller's reset of claim publishes the window's bound and shard state
// to whoever claims, and each runner's decrement of unfinished publishes its
// shard's results to the goroutine that sees the count reach zero.
//
// The count starts at width+1: one per shard and one ticket the caller
// gives back after its own claiming loop. Exactly one decrement sees zero.
// If it is the caller's, every shard has finished; otherwise the caller
// parks and the runner that saw zero sends the done token. Either way the
// caller leaves only after the window's last decrement, so no runner of
// this window can touch a later window's count.
func (s *ShardedScheduler) runHelpFirst(wake []chan struct{}) (int, any) {
	s.inWindow = true
	// unfinished before claim: a helper still looping from the previous
	// window must not claim a new shard before the count covers it.
	s.unfinished.Store(int32(s.width) + 1)
	s.claim.Store(0)
	for _, w := range wake {
		select {
		case w <- struct{}{}:
		default: // an earlier token is still pending; its wake finds this window
		}
	}
	s.runClaimed()
	if s.unfinished.Add(-1) != 0 {
		<-s.done // a helper still runs a claimed shard
	}
	s.inWindow = false
	n := 0
	var pan any
	for i := range s.shards {
		sh := &s.shards[i]
		n += sh.popped
		if pan == nil {
			pan = sh.panicked
		}
		sh.panicked = nil
	}
	return n, pan
}

// runClaimed claims shards of the current window and runs them until every
// shard is claimed. A runner whose decrement brings the count to zero
// finished the window's last shard after the caller gave back its ticket,
// so it sends the parked caller the done token.
func (s *ShardedScheduler) runClaimed() {
	for {
		si := int(s.claim.Add(1)) - 1
		if si >= s.width {
			return
		}
		s.runShard(si)
		if s.unfinished.Add(-1) == 0 {
			s.done <- struct{}{}
		}
	}
}

// runShard runs one shard's window, capturing a handler panic so that the
// other shards finish their window and the runtime stays consistent; Run
// re-raises it after the window.
func (s *ShardedScheduler) runShard(si int) {
	sh := &s.shards[si]
	defer func() { sh.panicked = recover() }()
	sh.popped = s.runWindow(si, sh.bound)
}

// helper runs claimed shards each time it is woken, until Run closes its
// wake channel.
func (s *ShardedScheduler) helper(wake <-chan struct{}, helpers *sync.WaitGroup) {
	defer helpers.Done()
	for range wake {
		s.runClaimed()
	}
}

// Drain runs until no events remain (no time bound).
func (s *ShardedScheduler) Drain() int {
	return s.Run(Time(1<<62 - 1))
}

// Step delivers exactly one event — the globally earliest by (at, src, seq)
// — and returns true, or returns false when every heap is empty or the
// runtime is stopped. Stepping is single-threaded: cross-shard sends route
// directly into the destination heap, and because the heap key totals the
// order, interleaving Step with windowed Run preserves determinism. Kill
// markers encountered on the way are applied and skipped.
func (s *ShardedScheduler) Step() bool {
	if s.stopped || s.stopReq.Load() {
		s.stopped = true
		return false
	}
	for {
		best := -1
		var bk shardEvent
		for i := range s.shards {
			if e, ok := s.shards[i].h.peek(); ok {
				if best < 0 || e.before(&bk) {
					best, bk = i, e
				}
			}
		}
		if best < 0 {
			return false
		}
		sh := &s.shards[best]
		e, _ := sh.h.pop()
		a := &s.actors[e.to-1]
		a.pending--
		if !a.dead {
			sh.live--
		}
		if e.at > s.low {
			s.low = e.at
		}
		if e.kill {
			sh.now = e.at
			if !a.dead {
				a.dead = true
				sh.live -= a.pending
			}
			continue
		}
		s.deliverOn(sh, e, a)
		return true
	}
}

func panicUnknownActor(id ActorID) {
	panic(fmt.Sprintf("sim: unknown actor %d", id))
}
