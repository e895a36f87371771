//go:build unix

package rtl8139

import (
	"errors"
	"os"
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/rtl8139hw"
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
	bus := hw.NewBus(clock, 4<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := rtl8139hw.New(bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A})
	drv := New(kern, net, dev, 0xC000, Config{
		Mode: xpc.ModeDecaf, IRQ: 11, DataPath: xpc.DataPathDecaf,
	})
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{Batch: batchN})
	if err != nil {
		t.Fatal(err)
	}
	drv.Runtime().SetTransport(pt)
	t.Cleanup(func() { drv.Runtime().SetTransport(nil) })
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}, pt
}

// TestProcExternalKillRecoversRxPath: the worker process dies by an
// external SIGKILL (nothing inside the simulation knows); the next RX flush
// hits the dead wire, surfaces as a contained fault, and the supervisor
// restarts the driver — respawned worker, replayed journal, frames
// delivering again.
func TestProcExternalKillRecoversRxPath(t *testing.T) {
	const batchN = 4
	r, pt := newProcPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.loadAndUp(t)
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("warmup inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("warmup delivered %d frames, want %d", received, batchN)
	}

	bootPID := pt.WorkerPID()
	if !pt.KillWorker() {
		t.Fatal("no worker to kill")
	}
	// The next full batch flushes into the dead worker: the flush faults,
	// its frames drop with accounting, and the supervisor recovers.
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d into dead-worker window failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("frames delivered through a dead worker: %d", received)
	}
	if got := r.drv.Adapter.Stats.RxDropped; got != batchN {
		t.Fatalf("RxDropped = %d, want the whole faulted flush (%d)", got, batchN)
	}
	st := sup.Stats()
	if st.Faults < 1 || st.Recoveries != 1 || st.Replayed != 2 {
		t.Fatalf("supervisor stats = %+v", st)
	}
	c := r.drv.Runtime().Counters()
	if c.WorkerRespawns < 1 || !c.WorkerAlive {
		t.Fatalf("respawns=%d alive=%v after recovery", c.WorkerRespawns, c.WorkerAlive)
	}
	if pid := pt.WorkerPID(); pid == bootPID {
		t.Fatal("worker pid unchanged across recovery")
	}
	// The restarted driver delivers again.
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("post-recovery inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != 2*batchN {
		t.Fatalf("received %d frames after recovery, want %d", received, 2*batchN)
	}
}

// TestProcRxDecafPathDelivers drives the decaf RX path over the worker
// process: interrupt drains submit coalesced flushes whose bodies the worker
// serves, and Quiesce leaves every frame delivered and nothing in flight.
func TestProcRxDecafPathDelivers(t *testing.T) {
	const batchN = 4
	r, _ := newProcPathRig(t, batchN)
	r.loadAndUp(t)
	r.drv.Runtime().ResetCounters()

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < 2*batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if err := r.drv.Quiesce(r.kern.NewContext("settle")); err != nil {
		t.Fatal(err)
	}
	if received != 2*batchN {
		t.Fatalf("received %d frames, want %d", received, 2*batchN)
	}
	if got := r.drv.rt.SharedState().Load(cellRxFrames); got != 2*batchN {
		t.Fatalf("decaf driver saw %d frames, want %d", got, 2*batchN)
	}
	c := r.drv.Runtime().Counters()
	if c.Trips() == 0 || c.Trips() > 2*batchN {
		t.Fatalf("Trips = %d, want coalesced crossings", c.Trips())
	}
	if c.WorkerServedCalls != 2*batchN || c.InFlight != 0 {
		t.Fatalf("WorkerServedCalls = %d, InFlight = %d, want %d and 0", c.WorkerServedCalls, c.InFlight, 2*batchN)
	}
}

// TestProcEveryDecafBodyRunsInWorker: under the proc transport the whole
// decaf driver is worker-resident — every upcall of load + up + down is a
// handler body the worker served, and every downcall is one such body
// calling back over its lane. Nothing crosses as a closure the kernel
// process runs.
func TestProcEveryDecafBodyRunsInWorker(t *testing.T) {
	r, _ := newProcPathRig(t, 4)
	r.loadAndUp(t)
	if err := r.drv.NetDevice().Down(r.kern.NewContext("ifdown")); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// probe, open, close; reset + unlock + 32 words + lock, 3 to open, 3 to
	// close.
	if c.Upcalls != 3 || c.Downcalls != 41 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 3/41", c.Upcalls, c.Downcalls)
	}
	if c.WorkerServedCalls != c.Upcalls {
		t.Fatalf("WorkerServedCalls=%d of %d upcalls: a decaf body ran in the kernel process", c.WorkerServedCalls, c.Upcalls)
	}
	if c.WorkerDowncalls != c.Downcalls {
		t.Fatalf("WorkerDowncalls=%d of %d downcalls: a downcall did not ride a lane", c.WorkerDowncalls, c.Downcalls)
	}
}

// TestProcWorkerDiesMidProbeRecovers: the worker is SIGKILLed from inside a
// probe-time downcall target, i.e. while the probe body is blocked in the
// worker mid-EEPROM-walk. The probe fails with a contained fault naming the
// death, and the supervisor's restart — a fresh worker, cleared probe cells,
// the journal replayed as handler calls — brings the interface back with
// the decaf driver's MAC/EEPROM cells exactly as before the fault.
func TestProcWorkerDiesMidProbeRecovers(t *testing.T) {
	const batchN = 4
	r, pt := newProcPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.loadAndUp(t)
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()
	preMAC, preEEPROM := r.drv.probeCells()
	if preMAC != r.drv.Adapter.MAC || preEEPROM[0] != 0x8129 {
		t.Fatalf("probe cells before the fault: mac %x signature %#x", preMAC, preEEPROM[0])
	}

	bootPID, killed := pt.WorkerPID(), false
	rt := r.drv.Runtime()
	rt.BindDowncall(downReadEEPROM, func(kctx *kernel.Context, w uint64) (uint64, error) {
		if w == 5 && !killed {
			killed = pt.KillWorker()
		}
		return uint64(r.drv.readEEPROMWord(kctx, uint8(w))), nil
	})
	err := r.drv.probe(r.kern.NewContext("reprobe"))
	var death *xpc.WorkerDeath
	if !killed || !xpc.IsUserFault(err) || !errors.As(err, &death) || death.PID != bootPID {
		t.Fatalf("killed=%v, probe error = %v; want a contained *UserFault wrapping the *WorkerDeath of pid %d", killed, err, bootPID)
	}

	// Drain runs the supervisor's whole restart (immediate policy).
	r.kern.DefaultWorkqueue().Drain()
	st := sup.Stats()
	if st.Recoveries != 1 || st.Replayed != 2 || st.State != recovery.StateMonitoring {
		t.Fatalf("supervisor stats = %+v", st)
	}
	if c := rt.Counters(); c.WorkerRespawns < 1 || !c.WorkerAlive || pt.WorkerPID() == bootPID {
		t.Fatalf("respawns=%d alive=%v pid %d (boot %d) after recovery", c.WorkerRespawns, c.WorkerAlive, pt.WorkerPID(), bootPID)
	}
	if mac, eeprom := r.drv.probeCells(); mac != preMAC || eeprom != preEEPROM {
		t.Fatalf("probe cells after the replay differ: mac %x (pre %x)", mac, preMAC)
	}
	if r.drv.Adapter.MAC != preMAC || r.drv.Adapter.EEPROM != preEEPROM {
		t.Fatal("kernel adapter differs from the pre-fault configuration")
	}
	// The interface is back: chip restarted, IRQ rewired, RX body served by
	// the fresh worker.
	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("post-recovery inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("received %d frames after recovery, want %d", received, batchN)
	}
}
