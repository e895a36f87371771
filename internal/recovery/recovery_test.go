package recovery

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

func newTestKernel() (*ktime.Clock, *kernel.Kernel) {
	clock := ktime.NewClock()
	return clock, kernel.New(clock, hw.NewBus(clock, 1<<20))
}

func TestJournalRecordSupersedeRemoveReplay(t *testing.T) {
	_, k := newTestKernel()
	j := NewStateJournal()
	var order []string
	mk := func(key, name string) Entry {
		return Entry{Key: key, Name: name, Replay: func(ctx *kernel.Context) error {
			order = append(order, name)
			return nil
		}}
	}
	j.Record(mk("probe", "probe-v1"))
	j.Record(mk("ifup", "ifup-v1"))
	j.Record(mk("params", "params-v1"))
	// Supersede keeps the original position.
	j.Record(mk("probe", "probe-v2"))
	if j.Len() != 3 {
		t.Fatalf("Len = %d", j.Len())
	}
	if st := j.Stats(); st.Recorded != 3 || st.Superseded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !j.Remove("params") || j.Remove("params") {
		t.Fatal("Remove bookkeeping wrong")
	}
	// Keys after a middle removal still index correctly: superseding ifup
	// must replace, not append.
	j.Record(mk("ifup", "ifup-v2"))
	if j.Len() != 2 {
		t.Fatalf("Len after re-record = %d", j.Len())
	}
	ran, err := j.Replay(k.NewContext("t"))
	if err != nil || ran != 2 {
		t.Fatalf("Replay = %d, %v", ran, err)
	}
	if len(order) != 2 || order[0] != "probe-v2" || order[1] != "ifup-v2" {
		t.Fatalf("replay order = %v", order)
	}
}

func TestJournalReplayAbortsOnFirstError(t *testing.T) {
	_, k := newTestKernel()
	j := NewStateJournal()
	var ran []string
	j.Record(Entry{Key: "a", Name: "a", Replay: func(ctx *kernel.Context) error {
		ran = append(ran, "a")
		return nil
	}})
	j.Record(Entry{Key: "b", Name: "b", Replay: func(ctx *kernel.Context) error {
		ran = append(ran, "b")
		return errors.New("hardware gone")
	}})
	j.Record(Entry{Key: "c", Name: "c", Replay: func(ctx *kernel.Context) error {
		ran = append(ran, "c")
		return nil
	}})
	n, err := j.Replay(k.NewContext("t"))
	if err == nil || n != 2 {
		t.Fatalf("Replay = %d, %v; want 2 entries and the error", n, err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
}

func TestPolicies(t *testing.T) {
	if d, ok := (Immediate{}).NextDelay(100); !ok || d != 0 {
		t.Fatalf("Immediate = %v, %v", d, ok)
	}
	if _, ok := (Immediate{MaxRestarts: 2}).NextDelay(3); ok {
		t.Fatal("Immediate max not enforced")
	}
	b := Backoff{Base: 10 * time.Millisecond, Max: 35 * time.Millisecond, MaxRestarts: 4}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		d, ok := b.NextDelay(i + 1)
		if !ok || d != w*time.Millisecond {
			t.Fatalf("Backoff attempt %d = %v, %v; want %v", i+1, d, ok, w*time.Millisecond)
		}
	}
	if _, ok := b.NextDelay(5); ok {
		t.Fatal("Backoff max restarts not enforced")
	}
	if (Backoff{}).Name() == "" || (Immediate{MaxRestarts: 1}).Name() == "" {
		t.Fatal("policies must name themselves")
	}
}

// fakeTarget drives the supervisor against a scripted driver.
type fakeTarget struct {
	rt       *xpc.Runtime
	outages  int
	tears    int
	resets   int
	resumes  int
	failstop int
	held     uint64
}

func (f *fakeTarget) RecoveryName() string        { return "fake" }
func (f *fakeTarget) Runtime() *xpc.Runtime       { return f.rt }
func (f *fakeTarget) BeginOutage(*kernel.Context) { f.outages++ }
func (f *fakeTarget) TeardownForRecovery(*kernel.Context) error {
	f.tears++
	return nil
}
func (f *fakeTarget) ResetDecafState(*kernel.Context) error {
	f.resets++
	return nil
}
func (f *fakeTarget) ResumeFromRecovery(*kernel.Context) (uint64, uint64) {
	f.resumes++
	return f.held, 0
}
func (f *fakeTarget) FailStop(*kernel.Context) { f.failstop++ }

func init() {
	registry.Register("fake_op", registry.Handler{Fn: func(*registry.Ctx) error { panic("decaf crash") }})
}

func crash(t *testing.T, k *kernel.Kernel, rt *xpc.Runtime) {
	t.Helper()
	err := rt.UpcallHandler(k.NewContext("crash"), "fake_op")
	if !xpc.IsUserFault(err) {
		t.Fatalf("crash err = %v", err)
	}
}

func TestSupervisorRecoversThroughJournalReplay(t *testing.T) {
	_, k := newTestKernel()
	rt := xpc.NewRuntime(k, "fake", xpc.ModeDecaf, nil)
	tgt := &fakeTarget{rt: rt, held: 7}
	j := NewStateJournal()
	replayed := 0
	j.Record(Entry{Key: "probe", Name: "probe", Replay: func(ctx *kernel.Context) error {
		replayed++
		return nil
	}})
	s := NewSupervisor(k, tgt, j, Config{})
	s.Attach()

	crash(t, k, rt)
	if st := s.State(); st != StateRecovering {
		t.Fatalf("state after fault = %v", st)
	}
	k.DefaultWorkqueue().Drain()

	st := s.Stats()
	if st.State != StateMonitoring || st.Recoveries != 1 || st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if tgt.outages != 1 || tgt.tears != 1 || tgt.resets != 1 || tgt.resumes != 1 {
		t.Fatalf("target calls = %+v", tgt)
	}
	if replayed != 1 || st.Replayed != 1 {
		t.Fatalf("journal replayed %d (stats %d)", replayed, st.Replayed)
	}
	if st.HeldReplayed != 7 {
		t.Fatalf("HeldReplayed = %d", st.HeldReplayed)
	}
	if st.LastFaultCall != "fake_op" {
		t.Fatalf("LastFaultCall = %q", st.LastFaultCall)
	}

	// A second fault recovers again: attempts accumulate.
	crash(t, k, rt)
	k.DefaultWorkqueue().Drain()
	if st := s.Stats(); st.Recoveries != 2 || st.Attempts != 2 {
		t.Fatalf("after second fault: %+v", st)
	}
}

func TestSupervisorBackoffDelaysRestart(t *testing.T) {
	clock, k := newTestKernel()
	rt := xpc.NewRuntime(k, "fake", xpc.ModeDecaf, nil)
	tgt := &fakeTarget{rt: rt}
	j := NewStateJournal()
	s := NewSupervisor(k, tgt, j, Config{Policy: Backoff{Base: 5 * time.Millisecond}})
	s.Attach()

	crash(t, k, rt)
	k.DefaultWorkqueue().Drain()
	// Torn down but not restarted: the backoff timer holds the replay.
	if st := s.State(); st != StateWaitingRestart {
		t.Fatalf("state = %v, want waiting-restart", st)
	}
	if tgt.resumes != 0 {
		t.Fatal("resumed before the backoff elapsed")
	}
	clock.Advance(10 * time.Millisecond)
	k.DefaultWorkqueue().Drain()
	st := s.Stats()
	if st.State != StateMonitoring || st.Recoveries != 1 {
		t.Fatalf("stats after backoff = %+v", st)
	}
	if st.LastLatency < 5*time.Millisecond {
		t.Fatalf("latency %v does not include the backoff", st.LastLatency)
	}
}

func TestSupervisorFailStopsWhenPolicyExhausted(t *testing.T) {
	_, k := newTestKernel()
	rt := xpc.NewRuntime(k, "fake", xpc.ModeDecaf, nil)
	tgt := &fakeTarget{rt: rt}
	j := NewStateJournal()
	// Replay always fails: the driver cannot be rebuilt.
	j.Record(Entry{Key: "probe", Name: "probe", Replay: func(ctx *kernel.Context) error {
		return fmt.Errorf("still broken")
	}})
	s := NewSupervisor(k, tgt, j, Config{Policy: Immediate{MaxRestarts: 3}})
	s.Attach()

	crash(t, k, rt)
	k.DefaultWorkqueue().Drain()

	st := s.Stats()
	if st.State != StateFailed || st.FailStops != 1 {
		t.Fatalf("stats = %+v, want fail-stop", st)
	}
	if tgt.failstop != 1 {
		t.Fatalf("FailStop called %d times", tgt.failstop)
	}
	if st.Recoveries != 0 || st.FailedRestarts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !s.InOutage() {
		t.Fatal("a fail-stopped driver must read as in outage")
	}
	// Further faults are absorbed without restarting the cycle.
	crash(t, k, rt)
	k.DefaultWorkqueue().Drain()
	if st := s.Stats(); st.FailStops != 1 || st.State != StateFailed {
		t.Fatalf("post-failstop fault: %+v", st)
	}
}

func TestSupervisorHardCapsConsecutiveFailedRestarts(t *testing.T) {
	_, k := newTestKernel()
	rt := xpc.NewRuntime(k, "fake", xpc.ModeDecaf, nil)
	tgt := &fakeTarget{rt: rt}
	j := NewStateJournal()
	j.Record(Entry{Key: "probe", Name: "probe", Replay: func(ctx *kernel.Context) error {
		return fmt.Errorf("still broken")
	}})
	// Unbounded policy: only the hard cap stands between this and an
	// infinite teardown/replay loop inside one drain.
	s := NewSupervisor(k, tgt, j, Config{Policy: Immediate{}})
	s.Attach()
	crash(t, k, rt)
	k.DefaultWorkqueue().Drain()
	st := s.Stats()
	if st.State != StateFailed {
		t.Fatalf("state = %v, want failed", st.State)
	}
	if st.FailedRestarts != maxConsecutiveReplayFailures {
		t.Fatalf("FailedRestarts = %d, want %d", st.FailedRestarts, maxConsecutiveReplayFailures)
	}
}
