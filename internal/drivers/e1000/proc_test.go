//go:build unix

package e1000

import (
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

// newProcPathRig is newDecafPathRig with the decaf side in a real worker
// process.
func newProcPathRig(t *testing.T, batchN int) (*rig, *xpc.ProcTransport) {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	net := knet.New(kern)
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
	r.drv.EnableRecovery(j, 0)
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
	runs := r.drv.WatchdogRuns()
	r.drv.Runtime().ResetCounters()

	r.clock.Advance(WatchdogPeriod)
	r.kern.DefaultWorkqueue().Drain()

	if got := r.drv.WatchdogRuns(); got != runs+1 {
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
