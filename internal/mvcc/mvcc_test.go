package mvcc

import (
	"testing"

	"specdb/internal/core"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/undo"
)

// workFn is the fragment body representation used by these tests: fragments
// carry executable closures so no procedure registry is needed.
type workFn func(v *storage.TxnView) (any, error)

// fakeEnv implements core.Env (and Storer) against a real store, recording
// all outputs.
type fakeEnv struct {
	t     *testing.T
	store *storage.Store
	undos map[msg.TxnID]*undo.Buffer

	results   []*msg.FragmentResult
	replies   []*msg.ClientReply
	decisions int
}

func newFakeEnv(t *testing.T) *fakeEnv {
	s := storage.NewStore()
	s.AddTable(storage.NewBTreeTable("kv"))
	return &fakeEnv{t: t, store: s, undos: make(map[msg.TxnID]*undo.Buffer)}
}

// Store satisfies Storer, the extra capability New demands of its env.
func (e *fakeEnv) Store() *storage.Store { return e.store }

func (e *fakeEnv) Execute(f *msg.Fragment, withUndo bool, locker storage.Locker) core.ExecOutcome {
	var buf *undo.Buffer
	if withUndo {
		buf = e.undos[f.Txn]
		if buf == nil {
			buf = undo.New()
			e.undos[f.Txn] = buf
		}
	}
	if f.InjectAbort {
		if buf != nil {
			buf.Rollback()
		}
		return core.ExecOutcome{Aborted: true}
	}
	view := storage.NewTxnView(e.store, buf, locker)
	out, err := f.Work.(workFn)(view)
	if err != nil {
		if buf != nil {
			buf.Rollback()
		}
		return core.ExecOutcome{Output: out, Aborted: true}
	}
	return core.ExecOutcome{Output: out}
}

func (e *fakeEnv) Rollback(id msg.TxnID) {
	if buf := e.undos[id]; buf != nil {
		buf.Rollback()
	}
}

func (e *fakeEnv) Forget(id msg.TxnID) { delete(e.undos, id) }

func (e *fakeEnv) SendResult(f *msg.Fragment, r *msg.FragmentResult) {
	e.results = append(e.results, r)
}

func (e *fakeEnv) ReplyClient(f *msg.Fragment, reply *msg.ClientReply) {
	e.replies = append(e.replies, reply)
}

func (e *fakeEnv) After(d sim.Time, payload any) {}

func (e *fakeEnv) ChargeDecision() { e.decisions++ }

func (e *fakeEnv) get(key string) int {
	v, ok := e.store.Table("kv").Get(key)
	if !ok {
		e.t.Fatalf("key %q missing", key)
	}
	return v.(int)
}

func (e *fakeEnv) set(key string, v int) {
	e.store.Table("kv").Put(key, v)
}

// Fragment builders.

func spFrag(id uint64, fn workFn) *msg.Fragment {
	return &msg.Fragment{Txn: msg.TxnID(id), Proc: "w", Last: true, Work: fn, Client: 99}
}

func roFrag(id uint64, fn workFn) *msg.Fragment {
	f := spFrag(id, fn)
	f.ReadOnly = true
	return f
}

func mpFrag(id uint64, round int, last bool, fn workFn) *msg.Fragment {
	return &msg.Fragment{
		Txn: msg.TxnID(id), Proc: "w", Round: round, Last: last,
		Work: fn, Coord: 7, MultiPartition: true,
	}
}

func mpROFrag(id uint64, round int, last bool, fn workFn) *msg.Fragment {
	f := mpFrag(id, round, last, fn)
	f.ReadOnly = true
	return f
}

func readKey(key string) workFn {
	return func(v *storage.TxnView) (any, error) {
		val, _ := v.Get("kv", key)
		return val, nil
	}
}

func writeKey(key string, val int) workFn {
	return func(v *storage.TxnView) (any, error) {
		v.Put("kv", key, val)
		return val, nil
	}
}

func newEngine(t *testing.T) (*Engine, *fakeEnv) {
	env := newFakeEnv(t)
	return New(env), env
}

func lastReply(t *testing.T, env *fakeEnv) *msg.ClientReply {
	t.Helper()
	if len(env.replies) == 0 {
		t.Fatal("no client replies")
	}
	return env.replies[len(env.replies)-1]
}

func lastResult(t *testing.T, env *fakeEnv) *msg.FragmentResult {
	t.Helper()
	if len(env.results) == 0 {
		t.Fatal("no fragment results")
	}
	return env.results[len(env.results)-1]
}

func TestIdleFastPath(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)
	e.Fragment(spFrag(1, writeKey("a", 2)))
	r := lastReply(t, env)
	if !r.Committed || env.get("a") != 2 {
		t.Fatalf("fast-path txn not committed: %+v, a=%d", r, env.get("a"))
	}
	if s := e.Stats(); s.FastPath != 1 || s.Executed != 1 {
		t.Fatalf("stats = %+v, want FastPath=1", s)
	}
	if !e.Quiescent() {
		t.Fatal("engine not quiescent after fast path")
	}
}

// TestVisibilityAtSnapshotBoundary is the version-visibility edge case: a
// write pending when the read-only transaction arrives is invisible to it —
// even after the writer commits — while a write committed before arrival is
// visible.
func TestVisibilityAtSnapshotBoundary(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	// Writer W holds an uncommitted write of a when RO arrives.
	e.Fragment(mpFrag(1, 0, false, writeKey("a", 2)))
	e.Fragment(roFrag(2, readKey("a")))
	if r := lastReply(t, env); !r.Committed || r.Output != 1 {
		t.Fatalf("RO during pending write = %+v, want committed read of 1", r)
	}
	// A long-lived RO arrives, then W commits: the retired version must be
	// captured into the snapshot, so the RO still reads 1 at its next round.
	e.Fragment(mpROFrag(3, 0, false, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("RO round 0 read = %v, want 1 (before-image)", r.Output)
	}
	e.Fragment(mpFrag(1, 1, true, readKey("a")))
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("a") != 2 {
		t.Fatalf("W did not commit: a = %d", env.get("a"))
	}
	e.Fragment(mpROFrag(3, 1, true, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("RO round 1 read = %v, want snapshot value 1", r.Output)
	}
	e.Decision(&msg.Decision{Txn: 3, Commit: true})
	// A fresh RO arriving after the commit sees the new version.
	e.Fragment(roFrag(4, readKey("a")))
	if r := lastReply(t, env); r.Output != 2 {
		t.Fatalf("post-commit RO read = %v, want 2", r.Output)
	}
}

// TestSnapshotFirstCaptureWins: when multiple writers of one row commit under
// a live read-only transaction, its snapshot keeps the oldest retired
// version — the committed state as of its arrival.
func TestSnapshotFirstCaptureWins(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpROFrag(1, 0, false, readKey("a")))
	e.Fragment(spFrag(2, writeKey("a", 2))) // retires version 1 into the snapshot
	e.Fragment(spFrag(3, writeKey("a", 3))) // retires version 2 — must not displace it
	if env.get("a") != 3 {
		t.Fatalf("writers did not commit: a = %d", env.get("a"))
	}
	e.Fragment(mpROFrag(1, 1, true, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("RO read = %v, want first-captured version 1", r.Output)
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if !e.Quiescent() {
		t.Fatal("engine not quiescent")
	}
}

// TestReadOnlyNeverAborts: read-only transactions neither block nor abort —
// not even when touching a row with a live uncommitted writer — and never
// constrain that writer.
func TestReadOnlyNeverAborts(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, writeKey("a", 2)))
	e.Fragment(roFrag(2, readKey("a")))
	r := lastReply(t, env)
	if !r.Committed || r.Retryable {
		t.Fatalf("RO reply = %+v, want Committed", r)
	}
	if s := e.Stats(); s.TSOrderAborts != 0 {
		t.Fatalf("TSOrderAborts = %d, want 0", s.TSOrderAborts)
	}
	// The writer is unconstrained by the snapshot read.
	e.Fragment(mpFrag(1, 1, true, readKey("a")))
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("a") != 2 {
		t.Fatalf("writer constrained by RO: a = %d", env.get("a"))
	}
}

// TestWriteWriteKillsLaterWriter: the transaction serialized later by arrival
// order loses a write-write conflict and is returned for client retry.
func TestWriteWriteKillsLaterWriter(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, writeKey("a", 10)))
	e.Fragment(spFrag(2, writeKey("a", 20)))
	r := lastReply(t, env)
	if !r.Retryable || r.Committed {
		t.Fatalf("later writer reply = %+v, want Retryable", r)
	}
	if s := e.Stats(); s.TSOrderAborts != 1 {
		t.Fatalf("TSOrderAborts = %d, want 1", s.TSOrderAborts)
	}
	e.Fragment(mpFrag(1, 1, true, readKey("a")))
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if env.get("a") != 10 {
		t.Fatalf("a = %d, want 10", env.get("a"))
	}
}

// TestReadOfUncommittedWriteKills: a read-write transaction reading another's
// uncommitted write loses (no dirty reads outside snapshots).
func TestReadOfUncommittedWriteKills(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, writeKey("a", 10)))
	e.Fragment(spFrag(2, readKey("a")))
	if r := lastReply(t, env); !r.Retryable {
		t.Fatalf("dirty reader reply = %+v, want Retryable", r)
	}
	if s := e.Stats(); s.TSOrderAborts != 1 {
		t.Fatalf("TSOrderAborts = %d, want 1", s.TSOrderAborts)
	}
}

// TestWriteIntoLiveReadSetKills: a write into a row a live multi-round
// transaction has read aborts the writer — the read must stay valid through
// its reader's commit.
func TestWriteIntoLiveReadSetKills(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, readKey("a")))
	e.Fragment(spFrag(2, writeKey("a", 2)))
	if r := lastReply(t, env); !r.Retryable {
		t.Fatalf("writer into read set = %+v, want Retryable", r)
	}
	// The reader finishes untouched.
	e.Fragment(mpFrag(1, 1, true, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("reader round 1 = %v, want 1", r.Output)
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: true})
	if !e.Quiescent() {
		t.Fatal("engine not quiescent")
	}
}

// TestAbortRestoresBeforeImage: a killed writer's store effects are rolled
// back and its pending-write entry vanishes, so later transactions see the
// committed head again.
func TestAbortRestoresBeforeImage(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, writeKey("a", 10)))
	if env.get("a") != 10 {
		t.Fatal("uncommitted write not in store")
	}
	e.Decision(&msg.Decision{Txn: 1, Commit: false})
	if env.get("a") != 1 {
		t.Fatalf("rollback failed: a = %d", env.get("a"))
	}
	if !e.Quiescent() {
		t.Fatal("engine not quiescent after abort")
	}
	// The row is writable again.
	e.Fragment(spFrag(2, writeKey("a", 5)))
	if !lastReply(t, env).Committed || env.get("a") != 5 {
		t.Fatalf("post-abort write failed: a = %d", env.get("a"))
	}
}

// TestReadPathAllocsFree pins the read-only snapshot path (overlay +
// execute + restore) at zero steady-state allocations: the displaced-row
// buffer is reused across transactions.
func TestReadPathAllocsFree(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)
	env.set("b", 1)

	// Keep a writer pending so read-only transactions take the overlay
	// path rather than the idle fast path.
	e.Fragment(mpFrag(1, 0, false, writeKey("a", 2)))
	frag := &msg.Fragment{Txn: 100, Proc: "w", Last: true, ReadOnly: true, Client: 99}
	work := readKey("b")
	tx := &mtxn{id: frag.Txn, ro: true, shadow: map[vkey]version{}}
	// Warm the buffer once, then measure.
	e.overlay(tx, func() { e.env.Execute(frag2(frag, work), false, roLocker{}) })
	if avg := testing.AllocsPerRun(100, func() {
		e.overlay(tx, func() {})
	}); avg != 0 {
		t.Fatalf("overlay allocates %v per run, want 0", avg)
	}
}

// frag2 returns f with its work body set.
func frag2(f *msg.Fragment, fn workFn) *msg.Fragment {
	f.Work = fn
	return f
}

// TestRejectsStorelessEnv: New must refuse an env that cannot expose the
// store — snapshots would be unmaterializable.
func TestRejectsStorelessEnv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an env without Store()")
		}
	}()
	New(storelessEnv{})
}

type storelessEnv struct{ core.Env }

// TestOwnedRowRewrite pins the owned-row rule of rwLocker.Lock: a second
// write to a row the transaction already owns skips the conflict walk and
// keeps the first before-image. Snapshots opened between the writes still see
// the original value, other transactions' reads and scans of the row are
// still killed, and an abort restores the original — not the intermediate
// value.
func TestOwnedRowRewrite(t *testing.T) {
	e, env := newEngine(t)
	env.set("a", 1)

	e.Fragment(mpFrag(1, 0, false, writeKey("a", 10)))
	// A snapshot opened between the owner's two writes.
	e.Fragment(mpROFrag(2, 0, false, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("snapshot read between writes = %v, want 1", r.Output)
	}
	e.Fragment(mpFrag(1, 1, false, writeKey("a", 20)))
	if env.get("a") != 20 {
		t.Fatalf("second write not in store: a = %d", env.get("a"))
	}
	if w := e.pendingWrites[vkey{"kv", "a"}]; w.prev.val != 1 || len(e.pending[1].writes) != 1 {
		t.Fatalf("second write changed the before-image or write list: prev %v, writes %v", w.prev.val, e.pending[1].writes)
	}
	aborts := e.Stats().TSOrderAborts
	e.Fragment(spFrag(3, readKey("a")))
	if r := lastReply(t, env); !r.Retryable {
		t.Fatalf("read of the owned row after its second write = %+v, want Retryable", r)
	}
	e.Fragment(spFrag(4, func(v *storage.TxnView) (any, error) {
		return v.Scan("kv", "", "", 0, func(string, any) bool { return true }), nil
	}))
	if r := lastReply(t, env); !r.Retryable {
		t.Fatalf("scan over the owned row = %+v, want Retryable", r)
	}
	if got := e.Stats().TSOrderAborts - aborts; got != 2 {
		t.Fatalf("TSOrderAborts grew by %d, want 2", got)
	}
	e.Fragment(mpROFrag(2, 1, true, readKey("a")))
	if r := lastResult(t, env); r.Output != 1 {
		t.Fatalf("snapshot read after the second write = %v, want 1", r.Output)
	}
	e.Decision(&msg.Decision{Txn: 2, Commit: true})
	e.Decision(&msg.Decision{Txn: 1, Commit: false})
	if env.get("a") != 1 {
		t.Fatalf("abort left a = %d, want the original 1", env.get("a"))
	}
	if !e.Quiescent() || len(e.pendingWrites) != 0 {
		t.Fatal("engine not quiescent after abort")
	}
}
