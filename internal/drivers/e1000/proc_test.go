//go:build unix

package e1000

import (
	"errors"
	"os"
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
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
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.drv.Runtime().SetTransport(pt)
	t.Cleanup(func() { r.drv.Runtime().SetTransport(nil) })
	return r, pt
}

// TestProcEveryDecafBodyRunsInWorker: under the proc transport the whole
// decaf driver is worker-resident — every upcall of load, ifup, ifdown and
// unload is a handler body the worker served, and every downcall is one
// such body calling back over its lane.
func TestProcEveryDecafBodyRunsInWorker(t *testing.T) {
	r, _ := newProcRig(t)
	r.load(t)
	a := r.drv.Adapter
	if a.MAC != [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC} || a.PhyID != 0x01410CB0 || a.TxRingSize != DefaultTxRing {
		t.Fatalf("adapter adopted from the worker's cells = %+v", *a)
	}
	r.up(t)
	if err := r.drv.NetDevice().Down(r.kern.NewContext("ifdown")); err != nil {
		t.Fatal(err)
	}
	if err := r.kern.UnloadModule("e1000"); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// probe, open and close; Table 3's 78 init downcalls plus close's 4.
	if c.Upcalls != 3 || c.Downcalls != 82 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 3/82", c.Upcalls, c.Downcalls)
	}
	if c.WorkerServedCalls != c.Upcalls {
		t.Fatalf("WorkerServedCalls=%d of %d upcalls: a decaf body ran in the kernel process", c.WorkerServedCalls, c.Upcalls)
	}
	if c.WorkerDowncalls != c.Downcalls {
		t.Fatalf("WorkerDowncalls=%d of %d downcalls: a downcall did not ride a lane", c.WorkerDowncalls, c.Downcalls)
	}
}

// TestProcWorkerDiesMidEEPROMWalk: the worker is SIGKILLed from inside the
// EEPROM read of word 32. The load fails with a contained fault naming the
// death, no interface is registered, and a second load runs on a fresh
// worker.
func TestProcWorkerDiesMidEEPROMWalk(t *testing.T) {
	r, pt := newProcRig(t)
	r.drv.Runtime().BindDowncall(downReadEEPROM, func(kctx *kernel.Context, addr uint64) (uint64, error) {
		if addr == 32 && !pt.KillWorker() {
			t.Error("no worker to kill from inside the downcall target")
		}
		return r.drv.readEEPROM(kctx, addr)
	})
	_, err := r.kern.LoadModule(r.drv.Module())
	var death *xpc.WorkerDeath
	if !xpc.IsUserFault(err) || !errors.As(err, &death) {
		t.Fatalf("load error = %v, want a contained *UserFault wrapping *WorkerDeath", err)
	}
	if _, ok := r.net.Device("eth0"); ok || r.drv.NetDevice() != nil {
		t.Fatal("interface registered by a probe that died")
	}
	if len(r.kern.LoadedModules()) != 0 {
		t.Fatal("failed module left loaded")
	}

	r.drv.registerDowncalls()
	r.load(t)
	if pid := pt.WorkerPID(); pid == 0 || pid == death.PID {
		t.Fatalf("worker pid = %d after the retry, want a fresh process (old %d)", pid, death.PID)
	}
	if _, ok := r.net.Device("eth0"); !ok {
		t.Fatal("retried load registered no interface")
	}
}

// TestProcWorkerDiesInsideUp: the worker is SIGKILLed from inside the
// e1000_up target, after open has allocated both rings and installed the
// interrupt handler. Its exception handlers never run, so the kernel side
// releases: no DMA stays in use, no handler stays installed, the device is
// down, and a second ifup runs on a fresh worker.
func TestProcWorkerDiesInsideUp(t *testing.T) {
	r, pt := newProcRig(t)
	r.load(t)
	dma := r.kern.Bus().DMA()
	inUse := dma.InUse()
	r.drv.Runtime().BindDowncall(downUp, func(kctx *kernel.Context, _ uint64) (uint64, error) {
		r.drv.nuc.up(kctx)
		if !pt.KillWorker() {
			t.Error("no worker to kill from inside the downcall target")
		}
		return 0, nil
	})
	ctx := r.kern.NewContext("ifup")
	err := r.drv.NetDevice().Up(ctx)
	var death *xpc.WorkerDeath
	if !xpc.IsUserFault(err) || !errors.As(err, &death) {
		t.Fatalf("ifup error = %v, want a contained *UserFault wrapping *WorkerDeath", err)
	}
	if got := dma.InUse(); got != inUse {
		t.Fatalf("failed open left %d DMA allocations (had %d before)", got, inUse)
	}
	if r.kern.FreeIRQ(9, "e1000") == nil {
		t.Fatal("interrupt handler left installed by a failed open")
	}
	if r.dev.PCI.MMIORead(0, e1000hw.RegRCTL, 4) != 0 || r.dev.PCI.MMIORead(0, e1000hw.RegTCTL, 4) != 0 {
		t.Fatal("device left enabled by a failed open")
	}
	if r.drv.NetDevice().IsUp() {
		t.Fatal("interface marked up after a failed open")
	}

	r.drv.registerDowncalls()
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatalf("ifup after the death: %v", err)
	}
	if pid := pt.WorkerPID(); pid == 0 || pid == death.PID {
		t.Fatalf("worker pid = %d after the retry, want a fresh process (old %d)", pid, death.PID)
	}
}

// newProcPathRig is newDecafPathRig with the decaf side in a real worker
// process.
func newProcPathRig(t *testing.T, batchN int) (*rig, *xpc.ProcTransport) {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := e1000hw.New(bus, 9, [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC})
	dev.SetLink(true)
	drv := New(kern, net, dev, Config{
		Mode: xpc.ModeDecaf, IRQ: 9,
		DataPath: xpc.DataPathDecaf, TxQueueDepth: batchN,
	})
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{Batch: batchN})
	if err != nil {
		t.Fatal(err)
	}
	drv.Runtime().SetTransport(pt)
	t.Cleanup(func() { drv.Runtime().SetTransport(nil) })
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}, pt
}

// TestProcRecoveryRestoresConfigAfterDataPathFault is the process-separated
// twin of the recovery fixture: the injected TX fault SIGKILLs the worker
// process, the supervisor respawns it and replays the journal over the real
// boundary, and the rebuilt configuration matches the pre-fault one.
func TestProcRecoveryRestoresConfigAfterDataPathFault(t *testing.T) {
	const batchN = 4
	r, pt := newProcPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.load(t)
	r.up(t)
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()

	bootPID := pt.WorkerPID()
	if bootPID == 0 {
		t.Fatal("no worker after boot crossings")
	}
	pre := *r.drv.Adapter
	r.drv.Runtime().SetFaultInjector(workloadFaultNth("e1000_xmit_frame", 2))

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatalf("fault surfaced to kernel caller: %v", err)
		}
	}
	r.kern.DefaultWorkqueue().Drain()

	st := sup.Stats()
	if st.Recoveries != 1 || st.State != recovery.StateMonitoring || st.Replayed != 2 {
		t.Fatalf("supervisor stats = %+v", st)
	}
	c := r.drv.Runtime().Counters()
	if c.WorkerDeaths < 1 || c.WorkerRespawns < 1 || !c.WorkerAlive {
		t.Fatalf("worker deaths=%d respawns=%d alive=%v: the restart was not physical",
			c.WorkerDeaths, c.WorkerRespawns, c.WorkerAlive)
	}
	if pid := pt.WorkerPID(); pid == bootPID {
		t.Fatalf("worker pid %d unchanged across recovery", pid)
	}
	a := r.drv.Adapter
	if a.MAC != pre.MAC || a.TxRingSize != pre.TxRingSize || a.EEPROM != pre.EEPROM || a.PhyID != pre.PhyID {
		t.Fatalf("post-recovery config differs:\npre  %+v\npost %+v", pre, *a)
	}
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatalf("transmit after recovery: %v", err)
		}
	}
	if r.drv.Adapter.Stats.TxPackets == 0 {
		t.Fatal("no frames transmitted after recovery")
	}
}

// TestProcDecafDataPathExecutesInWorker: with the decaf data path under the
// process-separated transport, the per-frame TX bodies execute in the worker
// process — the served-call counter proves the dispatch, and the frame count
// the worker accumulated is visible through the shared state cells.
func TestProcDecafDataPathExecutesInWorker(t *testing.T) {
	const batchN = 4
	r, pt := newProcPathRig(t, batchN)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if pid := pt.WorkerPID(); pid <= 0 || pid == os.Getpid() {
		t.Fatalf("worker pid = %d, want a live separate process", pid)
	}
	c := r.drv.Runtime().Counters()
	if c.WorkerServedCalls != batchN {
		t.Fatalf("WorkerServedCalls = %d, want %d (every TX body in the worker)", c.WorkerServedCalls, batchN)
	}
	if got := r.drv.DecafTxFrames(); got != batchN {
		t.Fatalf("DecafTxFrames = %d, want %d (the worker's shm writes)", got, batchN)
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != batchN {
		t.Fatalf("hardware transmitted %d frames, want %d", got, batchN)
	}
}

// TestDecafDataPathAsyncTransport drives the decaf TX path's asynchronous
// submissions end to end over the worker process: depth-triggered FlushAsync
// submissions cross as coalesced chunks, and Quiesce settles the pipeline so
// every frame reaches the hardware and nothing stays in flight.
func TestDecafDataPathAsyncTransport(t *testing.T) {
	const batchN, frames = 4, 3 * 4
	r, _ := newProcPathRig(t, batchN)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < frames; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.drv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != frames {
		t.Fatalf("hardware transmitted %d frames, want %d", got, frames)
	}
	if got := r.drv.DecafTxFrames(); got != frames {
		t.Fatalf("decaf driver saw %d frames, want %d", got, frames)
	}
	c := r.drv.Runtime().Counters()
	if c.Trips() != frames/batchN {
		t.Fatalf("Trips = %d, want %d coalesced crossings", c.Trips(), frames/batchN)
	}
	if c.InFlight != 0 {
		t.Fatalf("InFlight = %d after Quiesce", c.InFlight)
	}
}

// TestProcWatchdogRunsInWorker: the watchdog body executes in the worker and
// reaches the device through a real nested downcall — a FrameDown round trip
// mid-call, not a library shortcut.
func TestProcWatchdogRunsInWorker(t *testing.T) {
	r, _ := newProcPathRig(t, 1)
	r.load(t)
	r.up(t)
	runs := r.drv.rt.SharedState().Load(cellWatchdogRuns)
	r.drv.Runtime().ResetCounters()

	r.clock.Advance(WatchdogPeriod)
	r.kern.DefaultWorkqueue().Drain()

	if got := r.drv.rt.SharedState().Load(cellWatchdogRuns); got != runs+1 {
		t.Fatalf("WatchdogRuns = %d, want %d", got, runs+1)
	}
	c := r.drv.Runtime().Counters()
	if c.WorkerServedCalls == 0 {
		t.Fatal("watchdog body did not execute in the worker")
	}
	if c.WorkerDowncalls == 0 {
		t.Fatal("the watchdog's link-status read did not cross as a worker downcall")
	}
	if c.PerCall["e1000_watchdog"] != 1 {
		t.Fatalf("watchdog upcalls = %d, want 1", c.PerCall["e1000_watchdog"])
	}
}
