package fault

import (
	"strings"
	"testing"

	"specdb/internal/metrics"
	"specdb/internal/msg"
	"specdb/internal/sim"
)

func TestValidate(t *testing.T) {
	det := Detection{}.WithDefaults()
	if det.Heartbeat != DefaultHeartbeat || det.Timeout != DefaultTimeout {
		t.Fatalf("WithDefaults = %+v", det)
	}
	if kept := (Detection{Heartbeat: 3, Timeout: 9}).WithDefaults(); kept.Heartbeat != 3 || kept.Timeout != 9 {
		t.Fatalf("WithDefaults overwrote explicit values: %+v", kept)
	}
	cases := []struct {
		name     string
		events   []Event
		replicas int
		det      Detection
		durable  bool
		want     string // substring of the error; empty means accepted
	}{
		{name: "empty schedule skips every check", replicas: 1, det: Detection{}},
		{name: "crash primary at k=2", events: []Event{{Kind: KindCrashPrimary, Partition: 1, At: 5}}, replicas: 2, det: det},
		{name: "crash last backup at k=3", events: []Event{{Kind: KindCrashBackup, Partition: 0, Replica: 2}}, replicas: 3, det: det},
		{name: "crash-restart, durable, k=1", events: []Event{{Kind: KindCrashRestart, Partition: 0}}, replicas: 1, det: det, durable: true},
		{name: "one fault on each partition", events: []Event{{Kind: KindCrashPrimary, Partition: 0}, {Kind: KindCrashBackup, Partition: 1, Replica: 1}}, replicas: 2, det: det},

		{name: "zero heartbeat", events: []Event{{Kind: KindCrashPrimary}}, replicas: 2, det: Detection{Timeout: 10}, want: "heartbeat > 0"},
		{name: "timeout under two heartbeats", events: []Event{{Kind: KindCrashPrimary}}, replicas: 2, det: Detection{Heartbeat: 10, Timeout: 19}, want: "timeout >= 2*heartbeat"},
		{name: "negative partition", events: []Event{{Kind: KindCrashPrimary, Partition: -1}}, replicas: 2, det: det, want: "out of range [0,2)"},
		{name: "partition past the end", events: []Event{{Kind: KindCrashPrimary, Partition: 2}}, replicas: 2, det: det, want: "out of range [0,2)"},
		{name: "negative time", events: []Event{{Kind: KindCrashPrimary, At: -1}}, replicas: 2, det: det, want: "negative time"},
		{name: "two faults on one partition", events: []Event{{Kind: KindCrashPrimary}, {Kind: KindCrashBackup, Replica: 1}}, replicas: 2, det: det, want: "already has a scheduled fault"},
		{name: "crash primary without a backup", events: []Event{{Kind: KindCrashPrimary}}, replicas: 1, det: det, want: "needs replicas >= 2"},
		{name: "backup rank zero", events: []Event{{Kind: KindCrashBackup, Replica: 0}}, replicas: 2, det: det, want: "backup replica 0 out of range [1,1]"},
		{name: "backup rank past the end", events: []Event{{Kind: KindCrashBackup, Replica: 2}}, replicas: 2, det: det, want: "backup replica 2 out of range [1,1]"},
		{name: "crash-restart without durability", events: []Event{{Kind: KindCrashRestart}}, replicas: 1, det: det, want: "needs durability"},
		{name: "crash-restart with replicas", events: []Event{{Kind: KindCrashRestart}}, replicas: 2, det: det, durable: true, want: "needs replicas == 1"},
		{name: "unknown kind", events: []Event{{Kind: Kind(7)}}, replicas: 2, det: det, want: "unknown kind 7"},
		{name: "error names the offending event", events: []Event{{Kind: KindCrashPrimary, Partition: 0}, {Kind: KindCrashPrimary, Partition: 9}}, replicas: 2, det: det, want: "fault 1:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.events, 2, tc.replicas, tc.det, tc.durable)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// inbox records what an actor receives and when.
type inbox struct {
	got []sim.Message
	at  []sim.Time
}

func (b *inbox) Receive(ctx *sim.Context, m sim.Message) {
	b.got = append(b.got, m)
	b.at = append(b.at, ctx.Now())
}

func TestControllerReceive(t *testing.T) {
	const (
		crashAt = 150 * sim.Microsecond
		delay   = 10 * sim.Millisecond
	)
	cases := []struct {
		name     string
		ev       Event
		skipKill bool
	}{
		{name: "crash primary", ev: Event{Kind: KindCrashPrimary, Partition: 1}},
		{name: "crash backup", ev: Event{Kind: KindCrashBackup, Partition: 1, Replica: 2}},
		{name: "crash-restart", ev: Event{Kind: KindCrashRestart, Partition: 1}},
		{name: "crash primary, kill pre-registered", ev: Event{Kind: KindCrashPrimary, Partition: 1}, skipKill: true},
		{name: "crash-restart, kill pre-registered", ev: Event{Kind: KindCrashRestart, Partition: 1}, skipKill: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			victim := s.Register("victim", &inbox{})
			standby := &inbox{}
			standbyID := s.Register("restarter", standby)
			rec := metrics.NewCollector(0, sim.Second)
			var asked []Event
			ctl := s.Register("fault-controller", &Controller{
				Rec: rec,
				Victim: func(ev Event) sim.ActorID {
					asked = append(asked, ev)
					return victim
				},
				Restarter: func(p msg.PartitionID) sim.ActorID {
					if p != tc.ev.Partition {
						t.Errorf("restarter asked for partition %d, want %d", p, tc.ev.Partition)
					}
					return standbyID
				},
				RestartDelay: delay,
				SkipKill:     tc.skipKill,
			})
			tc.ev.At = crashAt
			s.SendAt(crashAt, ctl, tc.ev)
			s.Drain()

			if s.Alive(victim) == !tc.skipKill {
				t.Errorf("victim alive = %v with SkipKill = %v", s.Alive(victim), tc.skipKill)
			}
			if !tc.skipKill && (len(asked) != 1 || asked[0] != tc.ev) {
				t.Errorf("Victim asked about %+v, want exactly %+v", asked, tc.ev)
			}
			if !s.Alive(standbyID) || !s.Alive(ctl) {
				t.Error("the controller killed a bystander")
			}
			if tc.ev.Kind == KindCrashRestart {
				if len(rec.Failovers) != 0 || len(rec.Recoveries) != 1 {
					t.Fatalf("failovers=%+v recoveries=%+v", rec.Failovers, rec.Recoveries)
				}
				if e := rec.Recoveries[0]; e.Partition != 1 || e.CrashedAt != crashAt {
					t.Errorf("recovery event %+v", e)
				}
				if len(standby.got) != 1 || standby.got[0] != (msg.Restart{}) || standby.at[0] != crashAt+delay {
					t.Errorf("restarter received %v at %v, want one msg.Restart at %v", standby.got, standby.at, crashAt+delay)
				}
				return
			}
			if len(standby.got) != 0 {
				t.Errorf("restarter received %v for a non-restart fault", standby.got)
			}
			if len(rec.Recoveries) != 0 || len(rec.Failovers) != 1 {
				t.Fatalf("failovers=%+v recoveries=%+v", rec.Failovers, rec.Recoveries)
			}
			e := rec.Failovers[0]
			wantRole, wantReplica := metrics.RolePrimary, 0
			if tc.ev.Kind == KindCrashBackup {
				wantRole, wantReplica = metrics.RoleBackup, 2
			}
			if e.Partition != 1 || e.Role != wantRole || e.Replica != wantReplica || e.CrashedAt != crashAt {
				t.Errorf("failover event %+v, want partition 1 role %v replica %d crashed at %v", e, wantRole, wantReplica, crashAt)
			}
		})
	}
}

func TestControllerRejectsForeignMessages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a non-Event message must panic")
		}
	}()
	s := sim.New()
	ctl := s.Register("fault-controller", &Controller{})
	s.SendAt(0, ctl, "not an event")
	s.Drain()
}
