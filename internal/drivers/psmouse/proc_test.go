//go:build unix

package psmouse

import (
	"errors"
	"os"
	"testing"

	"decafdrivers/internal/hw/ps2hw"
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
// decaf driver is worker-resident — every upcall of a load is a handler
// body the worker served, and every downcall is one such body calling back
// over its lane. Nothing crosses as a closure the kernel process runs.
func TestProcEveryDecafBodyRunsInWorker(t *testing.T) {
	r, _ := newProcRig(t)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	if err := r.kern.UnloadModule("psmouse"); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	if c.Upcalls != 2 || c.Downcalls != 17 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 2/17 (Table 3's 19 init crossings)", c.Upcalls, c.Downcalls)
	}
	if c.WorkerServedCalls != c.Upcalls {
		t.Fatalf("WorkerServedCalls=%d of %d upcalls: a decaf body ran in the kernel process", c.WorkerServedCalls, c.Upcalls)
	}
	if c.WorkerDowncalls != c.Downcalls {
		t.Fatalf("WorkerDowncalls=%d of %d downcalls: a downcall did not ride a lane", c.WorkerDowncalls, c.Downcalls)
	}
	if r.drv.State.Protocol != "ImPS/2" || r.drv.State.MouseID != ps2hw.IDIntelliMouse {
		t.Fatalf("state adopted from the worker's cells = %+v", r.drv.State)
	}
}

// TestProcWorkerDiesMidProbe: the worker is SIGKILLed from inside a
// probe-time downcall target, i.e. while the probe body is blocked in the
// worker waiting for its result. The load fails with a contained fault
// naming the death, and a second load runs on a fresh worker.
func TestProcWorkerDiesMidProbe(t *testing.T) {
	r, pt := newProcRig(t)
	rt := r.drv.Runtime()
	rt.RegisterDowncall("psmouse_cmd", func(kctx *kernel.Context, req uint64) (uint64, error) {
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
	if _, ok := r.in.Device("psmouse"); ok {
		t.Fatal("input device registered by a probe that died")
	}
	oldPID := death.PID
	r.drv.registerDowncalls()
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatalf("load after the death: %v", err)
	}
	if pid := pt.WorkerPID(); pid == 0 || pid == oldPID {
		t.Fatalf("worker pid = %d after the retry, want a fresh process (old %d)", pid, oldPID)
	}
	if c := rt.Counters(); c.WorkerDeaths != 1 || c.WorkerRespawns != 1 || !c.WorkerAlive {
		t.Fatalf("WorkerDeaths=%d WorkerRespawns=%d WorkerAlive=%v, want 1/1/true", c.WorkerDeaths, c.WorkerRespawns, c.WorkerAlive)
	}
	if r.drv.State.Protocol != "ImPS/2" {
		t.Fatalf("protocol after the retry = %q", r.drv.State.Protocol)
	}
}
