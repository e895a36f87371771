//go:build unix

package ens1371

import (
	"errors"
	"os"
	"testing"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// TestMain routes the re-exec'd test binary into the decaf worker loop for
// the process-separated transport fixtures below.
func TestMain(m *testing.M) {
	xpc.MaybeRunWorker()
	os.Exit(m.Run())
}

// newProcRig is newRig with the decaf side in a real worker process.
func newProcRig(t *testing.T) (*rig, *xpc.ProcTransport) {
	t.Helper()
	r := newRig(t, xpc.ModeDecaf)
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.drv.Runtime().SetTransport(pt)
	t.Cleanup(func() { r.drv.Runtime().SetTransport(nil) })
	return r, pt
}

// TestProcTriggerExecutesInWorkerAndRecovers: the PCM trigger body runs in
// the worker process (its engine-control downcall crossing back for real),
// an injected fault inside a trigger SIGKILLs the worker without surfacing
// through the sound core, and the supervisor's replay over the respawned
// worker leaves the engine state consistent in the shared cells and the
// kernel mirror alike.
func TestProcTriggerExecutesInWorkerAndRecovers(t *testing.T) {
	r, pt := newProcRig(t)
	j := recovery.NewStateJournal()
	r.drv.journal = j
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()

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
	r.drv.Runtime().ResetCounters()
	if err := st.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// The start trigger executed in the worker: the served-call counter
	// ticked, its downcall crossed back, and both the shared cell and the
	// kernel-side mirror report a running engine.
	c := r.drv.Runtime().Counters()
	if c.WorkerServedCalls == 0 {
		t.Fatal("trigger body did not execute in the worker")
	}
	if c.WorkerDowncalls == 0 {
		t.Fatal("the trigger's engine-control downcall did not cross from the worker")
	}
	if r.drv.rt.SharedState().Load(cellRunning) == 0 {
		t.Fatal("running cell not set after a worker-served start trigger")
	}
	if !r.drv.Chip.Running {
		t.Fatal("kernel chip mirror not set after a worker-served start trigger")
	}
	bootPID := pt.WorkerPID()
	if bootPID <= 0 || bootPID == os.Getpid() {
		t.Fatalf("worker pid = %d, want a live separate process", bootPID)
	}

	// Crash the decaf driver inside the stop trigger: the PCM layer must
	// see success (the proxy journals the stop and defers it), the worker
	// dies for real, and the replay over the respawned worker applies the
	// journaled stop.
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
	c = r.drv.Runtime().Counters()
	if c.WorkerDeaths == 0 || !c.WorkerAlive {
		t.Fatalf("deaths=%d alive=%v: the containment was not physical", c.WorkerDeaths, c.WorkerAlive)
	}
	if pid := pt.WorkerPID(); pid == bootPID {
		t.Fatalf("worker pid %d unchanged across recovery", pid)
	}
	if r.drv.rt.SharedState().Load(cellRunning) != 0 {
		t.Fatal("running cell still set: the journaled stop was not replayed through the new worker")
	}
	if r.drv.Chip.Running {
		t.Fatal("kernel chip mirror still running after the replayed stop")
	}
	// The recovered driver keeps working through the respawned worker.
	if err := st.Start(ctx); err != nil {
		t.Fatalf("start after recovery: %v", err)
	}
	if r.drv.rt.SharedState().Load(cellRunning) == 0 {
		t.Fatal("running cell not set after post-recovery start")
	}
	if err := st.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestProcEveryDecafBodyRunsInWorker: under the proc transport the whole
// decaf driver is worker-resident — every upcall of load and a playback
// session is a handler body the worker served, and every downcall is one
// such body calling back over its lane.
func TestProcEveryDecafBodyRunsInWorker(t *testing.T) {
	r, _ := newProcRig(t)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	if r.drv.Chip.CodecVendor != 0x43525914 || r.drv.Chip.MixerCtls != int32(len(ctlNames)) {
		t.Fatalf("chip after a worker-served probe = %+v", *r.drv.Chip)
	}
	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("mpg123")
	st, err := card.OpenPlayback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.drv.AttachStream(st)
	for _, step := range []func() error{
		func() error { return st.Configure(ctx, 48000, 2, 512) },
		func() error { return st.Start(ctx) },
		func() error { return st.Stop(ctx) },
		func() error { return st.Close(ctx) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if c := r.drv.Chip; c.Rate != 48000 || c.Channels != 2 || c.PeriodLen != 512 {
		t.Fatalf("chip after a worker-served hw_params = %+v", *c)
	}
	c := r.drv.Runtime().Counters()
	// probe, open, hw_params, prepare, two triggers, close; Table 3's 178
	// probe downcalls plus the playback session's 7.
	if c.Upcalls != 7 || c.Downcalls != 185 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 7/185", c.Upcalls, c.Downcalls)
	}
	if c.WorkerServedCalls != c.Upcalls {
		t.Fatalf("WorkerServedCalls=%d of %d upcalls: a decaf body ran in the kernel process", c.WorkerServedCalls, c.Upcalls)
	}
	if c.WorkerDowncalls != c.Downcalls {
		t.Fatalf("WorkerDowncalls=%d of %d downcalls: a downcall did not ride a lane", c.WorkerDowncalls, c.Downcalls)
	}
}

// TestProcWorkerDiesMidSRCWalkRecovers: the worker is SIGKILLed from inside
// an SRC write while the probe body walks the SRC RAM. The probe fails with
// a contained fault naming the death, and the supervisor's restart — a
// fresh worker, a cleared codec-vendor cell, the journal replayed as handler
// calls — restores that cell and the kernel chip exactly as before the
// fault.
func TestProcWorkerDiesMidSRCWalkRecovers(t *testing.T) {
	r, pt := newProcRig(t)
	j := recovery.NewStateJournal()
	r.drv.journal = j
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()
	rt := r.drv.Runtime()
	vendor := func() uint64 { return rt.SharedState().Load(cellCodecVendor) }
	preVendor, preChip := vendor(), *r.drv.Chip
	card, _ := r.snd.Card("ens1371")
	preCtls := card.Controls()

	bootPID, killed := pt.WorkerPID(), false
	rt.BindDowncall(downSRCWrite, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if arg>>16 == 64 && !killed {
			killed = pt.KillWorker()
		}
		r.drv.srcWrite(kctx, uint32(arg>>16), uint16(arg))
		return 0, nil
	})
	err := r.drv.probe(r.kern.NewContext("reprobe"), flagPayload[true])
	var death *xpc.WorkerDeath
	if !killed || !xpc.IsUserFault(err) || !errors.As(err, &death) || death.PID != bootPID {
		t.Fatalf("killed=%v, probe error = %v; want a contained *UserFault wrapping the *WorkerDeath of pid %d", killed, err, bootPID)
	}

	// Drain runs the supervisor's whole restart (immediate policy).
	r.kern.DefaultWorkqueue().Drain()
	if st := sup.Stats(); st.Recoveries != 1 || st.Replayed != 1 || st.State != recovery.StateMonitoring {
		t.Fatalf("supervisor stats = %+v", st)
	}
	if c := rt.Counters(); c.WorkerRespawns < 1 || !c.WorkerAlive || pt.WorkerPID() == bootPID {
		t.Fatalf("respawns=%d alive=%v pid %d (boot %d) after recovery", c.WorkerRespawns, c.WorkerAlive, pt.WorkerPID(), bootPID)
	}
	if got := vendor(); got != preVendor || got == 0 {
		t.Fatalf("codec-vendor cell after the replay = %#x, want %#x", got, preVendor)
	}
	if *r.drv.Chip != preChip {
		t.Fatalf("kernel chip after the replay = %+v, want %+v", *r.drv.Chip, preChip)
	}
	if card.Controls() != preCtls {
		t.Fatalf("controls = %d after recovery, want %d (no duplicate registration)", card.Controls(), preCtls)
	}
}
