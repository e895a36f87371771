//go:build unix

package uhcihcd

import (
	"errors"
	"os"
	"testing"

	"decafdrivers/internal/hw/uhcihw"
	"decafdrivers/internal/kernel"
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
// decaf driver is worker-resident — every upcall of load + unload is a
// handler body the worker served, and every downcall is one such body
// calling back over its lane.
func TestProcEveryDecafBodyRunsInWorker(t *testing.T) {
	r, _ := newProcRig(t)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	if r.drv.State.FrameBase == 0 || r.drv.State.Port[0]&uhcihw.PortEnable == 0 || !r.drv.State.Running {
		t.Fatalf("state adopted from the worker's cells = %+v", *r.drv.State)
	}
	if err := r.kern.UnloadModule("uhci-hcd"); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// uhci_start and uhci_suspend; Table 3's 44 init downcalls plus the stop.
	if c.Upcalls != 2 || c.Downcalls != 45 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 2/45", c.Upcalls, c.Downcalls)
	}
	if c.WorkerServedCalls != c.Upcalls {
		t.Fatalf("WorkerServedCalls=%d of %d upcalls: a decaf body ran in the kernel process", c.WorkerServedCalls, c.Upcalls)
	}
	if c.WorkerDowncalls != c.Downcalls {
		t.Fatalf("WorkerDowncalls=%d of %d downcalls: a downcall did not ride a lane", c.WorkerDowncalls, c.Downcalls)
	}
	if r.drv.ControllerRunning() || r.drv.State.Running {
		t.Fatal("controller still running after unload")
	}
}

// TestProcWorkerDiesMidStartFreesSchedule: the worker is SIGKILLed from
// inside a start-body target after the schedule is allocated — a port reset,
// and the run write itself. The load fails with a contained fault naming the
// death and leaves nothing behind — no DMA allocation, no interrupt handler,
// no HCD, no running controller — and a second load runs on a fresh worker.
func TestProcWorkerDiesMidStartFreesSchedule(t *testing.T) {
	for _, target := range []string{"uhci_port_reset", "uhci_run"} {
		t.Run(target, func(t *testing.T) {
			r, pt := newProcRig(t)
			dma := r.kern.Bus().DMA()
			inUse := dma.InUse()
			r.drv.Runtime().RegisterDowncall(target, func(kctx *kernel.Context, p uint64) (uint64, error) {
				if target == "uhci_run" {
					r.drv.outw(uhcihw.RegUSBCMD, uhcihw.CmdRS)
				}
				if !pt.KillWorker() {
					t.Error("no worker to kill from inside the downcall target")
				}
				return 0, nil
			})
			_, err := r.kern.LoadModule(r.drv.Module())
			var death *xpc.WorkerDeath
			if !xpc.IsUserFault(err) || !errors.As(err, &death) {
				t.Fatalf("load error = %v, want a contained *UserFault wrapping *WorkerDeath", err)
			}
			if got := dma.InUse(); got != inUse {
				t.Fatalf("failed load left %d DMA allocations (had %d before)", got, inUse)
			}
			r.kern.Bus().IRQ(10).Raise()
			if r.drv.State.IntrCount != 0 {
				t.Fatal("interrupt handler ran after failed load")
			}
			if _, ok := r.usb.HCDByName("uhci-hcd"); ok {
				t.Fatal("HCD registered by a start body that died")
			}
			if r.drv.ControllerRunning() || r.drv.inw(uhcihw.RegUSBCMD)&uhcihw.CmdRS != 0 {
				t.Fatal("controller left running by a failed load")
			}

			r.drv.registerDowncalls()
			if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
				t.Fatalf("load after the death: %v", err)
			}
			if pid := pt.WorkerPID(); pid == 0 || pid == death.PID {
				t.Fatalf("worker pid = %d after the retry, want a fresh process (old %d)", pid, death.PID)
			}
			if _, ok := r.usb.HCDByName("uhci-hcd"); !ok || !r.drv.ControllerRunning() {
				t.Fatal("retried load did not bring the controller up")
			}
		})
	}
}
