package ens1371

import (
	"testing"

	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// TestRecoveryRestoresChipConfigAndStreamState: a decaf-side panic in a PCM
// op under supervision never surfaces to the sound core — the op journals
// its intent and defers — and the restart replays probe configuration and
// stream state so the post-recovery chip matches the pre-fault one.
func TestRecoveryRestoresChipConfigAndStreamState(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()
	if j.Len() != 1 {
		t.Fatalf("journal has %d entries after boot, want the probe", j.Len())
	}

	card, ok := r.snd.Card("ens1371")
	if !ok {
		t.Fatal("card not registered")
	}
	ctx := r.kern.NewContext("mpg123")
	st, err := card.OpenPlayback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.drv.AttachStream(st)
	if err := st.Configure(ctx, 44100, 2, 1024); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("journal has %d entries with a running stream, want probe+open+params+trigger", j.Len())
	}
	preVendor := r.drv.Chip.CodecVendor
	preCtls := card.Controls()

	// Crash the decaf driver inside the stop trigger: the PCM layer must
	// see success (the proxy journals the stop and defers it), and the
	// supervisor must restart and replay.
	r.drv.Runtime().SetFaultInjector(func(call string) bool {
		return call == "snd_ens1371_trigger"
	})
	if err := st.Stop(ctx); err != nil {
		t.Fatalf("contained fault surfaced through the PCM layer: %v", err)
	}
	r.drv.Runtime().SetFaultInjector(nil)
	r.kern.DefaultWorkqueue().Drain()

	stats := sup.Stats()
	if stats.Recoveries != 1 || stats.State != recovery.StateMonitoring {
		t.Fatalf("supervisor stats = %+v", stats)
	}
	if stats.HeldReplayed == 0 {
		t.Fatal("the deferred trigger was not accounted as held work")
	}
	// Replay rebuilt the configuration: codec vendor and hw_params adopted
	// into the kernel chip from the cells the replayed bodies refilled, and
	// the journaled stop applied (engine not running).
	c := r.drv.Chip
	if c.CodecVendor != preVendor || c.Rate != 44100 || c.Channels != 2 || c.PeriodLen != 1024 {
		t.Fatalf("post-recovery chip = %+v", *c)
	}
	// The chip outlives the restart, so the refilled codec-vendor cell is
	// what shows the probe replay ran: the reset cleared it.
	if v := r.drv.Runtime().SharedState().Load(cellCodecVendor); v != uint64(preVendor) {
		t.Fatalf("codec-vendor cell after the replay = %#x, want %#x", v, preVendor)
	}
	if c.Running {
		t.Fatal("journaled stop was not replayed: engine still running")
	}
	// Kernel-object registrations survived without duplication: same card,
	// same control count.
	if card.Controls() != preCtls {
		t.Fatalf("controls = %d after recovery, want %d (no duplicate registration)", card.Controls(), preCtls)
	}
	if _, ok := r.snd.Card("ens1371"); !ok {
		t.Fatal("card lost during recovery")
	}
	// The recovered driver keeps working: a fresh stream cycle succeeds.
	if err := st.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st2, err := card.OpenPlayback(ctx)
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	if err := st2.Configure(ctx, 48000, 2, 512); err != nil {
		t.Fatal(err)
	}
	if err := st2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st2.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareFaultAbsorbedAndFailStopErrors: Prepare is proxied like every
// other PCM op (a contained fault defers the pointer reset), and once the
// restart budget is exhausted the card errors explicitly instead of
// silently swallowing ops.
func TestPrepareFaultAbsorbedAndFailStopErrors(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{Policy: recovery.Immediate{MaxRestarts: 1}})
	sup.Attach()

	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("t")
	st, err := card.OpenPlayback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Configure runs HWParams then Prepare: a fault in Prepare must be
	// absorbed, not surfaced through the sound core.
	r.drv.Runtime().SetFaultInjector(func(call string) bool {
		return call == "snd_ens1371_prepare"
	})
	if err := st.Configure(ctx, 44100, 2, 1024); err != nil {
		t.Fatalf("contained Prepare fault surfaced: %v", err)
	}
	if r.drv.Chip.HWPos != 0 {
		t.Fatal("deferred Prepare did not apply the pointer reset")
	}
	// The injector still fires on every prepare: the single-restart budget
	// exhausts (replays are clean — probe has no prepare — so exhaust it
	// with repeated faults instead).
	r.kern.DefaultWorkqueue().Drain()
	if st2 := sup.Stats(); st2.Recoveries != 1 {
		t.Fatalf("stats after first fault: %+v", st2)
	}
	// Second fault: budget (MaxRestarts 1) is exhausted -> fail-stop.
	if err := st.Configure(ctx, 44100, 2, 1024); err != nil {
		t.Fatalf("second contained fault surfaced: %v", err)
	}
	r.kern.DefaultWorkqueue().Drain()
	if st2 := sup.Stats(); st2.FailStops != 1 {
		t.Fatalf("no fail-stop: %+v", st2)
	}
	// A fail-stopped card errors PCM ops explicitly — dead, not slow.
	if err := st.Configure(ctx, 44100, 2, 1024); err == nil {
		t.Fatal("PCM op succeeded on a fail-stopped card")
	}
	if err := st.Start(ctx); err == nil {
		t.Fatal("Start succeeded on a fail-stopped card")
	}
}
