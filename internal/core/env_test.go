package core

import (
	"testing"

	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/undo"
)

// workFn is the fragment body representation used by core tests: fragments
// carry executable closures so tests need no procedure registry.
type workFn func(v *storage.TxnView) (any, error)

// fakeEnv implements Env against a real store, recording all outputs.
type fakeEnv struct {
	t     *testing.T
	store *storage.Store
	undos map[msg.TxnID]*undo.Buffer

	results   []*msg.FragmentResult
	replies   []*msg.ClientReply
	timers    []timerEntry
	decisions int
}

type timerEntry struct {
	d       sim.Time
	payload any
}

func newFakeEnv(t *testing.T) *fakeEnv {
	s := storage.NewStore()
	s.AddTable(storage.NewBTreeTable("kv"))
	return &fakeEnv{t: t, store: s, undos: make(map[msg.TxnID]*undo.Buffer)}
}

func (e *fakeEnv) Execute(f *msg.Fragment, withUndo bool, locker storage.Locker) (outcome ExecOutcome) {
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
		return ExecOutcome{Aborted: true}
	}
	if locker != nil {
		// The partition's contract: a body the locker unwinds with Suspend
		// is rolled back to where this fragment started.
		mark := buf.Len()
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(Suspend); !ok {
				panic(r)
			}
			buf.RollbackTo(mark)
			outcome = ExecOutcome{Suspended: true}
		}()
	}
	view := storage.NewTxnView(e.store, buf, locker)
	out, err := f.Work.(workFn)(view)
	if err != nil {
		if buf != nil {
			buf.Rollback()
		}
		return ExecOutcome{Output: out, Aborted: true}
	}
	return ExecOutcome{Output: out}
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

func (e *fakeEnv) After(d sim.Time, payload any) {
	e.timers = append(e.timers, timerEntry{d, payload})
}

func (e *fakeEnv) ChargeDecision() { e.decisions++ }

// get reads a key directly, bypassing concurrency control.
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

func spFragAbortable(id uint64, fn workFn) *msg.Fragment {
	f := spFrag(id, fn)
	f.CanAbort = true
	return f
}

func mpFrag(id uint64, round int, last bool, coord sim.ActorID, fn workFn) *msg.Fragment {
	return &msg.Fragment{
		Txn: msg.TxnID(id), Proc: "w", Round: round, Last: last,
		Work: fn, Coord: coord, MultiPartition: true,
	}
}

// Common fragment bodies.

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

func incrKey(key string) workFn {
	return func(v *storage.TxnView) (any, error) {
		cur, _ := v.GetForUpdate("kv", key)
		n := cur.(int) + 1
		v.Put("kv", key, n)
		return n, nil
	}
}

func userAbort() workFn {
	return func(v *storage.TxnView) (any, error) {
		v.Put("kv", "scratch", -1)
		return nil, errTestAbort
	}
}

var errTestAbort = errTest("user abort")

type errTest string

func (e errTest) Error() string { return string(e) }

// assertion helpers

func requireReplies(t *testing.T, env *fakeEnv, n int) {
	t.Helper()
	if len(env.replies) != n {
		t.Fatalf("replies = %d, want %d (%+v)", len(env.replies), n, env.replies)
	}
}

func requireResults(t *testing.T, env *fakeEnv, n int) {
	t.Helper()
	if len(env.results) != n {
		t.Fatalf("results = %d, want %d", len(env.results), n)
	}
}
