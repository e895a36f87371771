package xpc

import (
	"fmt"
	"sync"
	"testing"

	"decafdrivers/internal/kernel"
)

// TestConcurrentCrossings hammers two drivers' runtimes from parallel
// goroutines — upcalls, upcalls that call down, batched flushes, snapshots
// and resets — exercising the lock-free counter fast path and the call
// record pool under the race detector. The bodies are free and write no
// cells (the runtime's one decaf context is the in-process decaf driver's
// single thread, and a free body under ZeroLatencyModel leaves it alone);
// the counters are what must be safe under concurrency.
func TestConcurrentCrossings(t *testing.T) {
	k := newTestKernel()
	driverA := NewRuntime(k, "driver-a", ModeDecaf, nil)
	driverB := NewRuntime(k, "driver-b", ModeDecaf, nil)
	driverA.Latency = ZeroLatencyModel
	driverB.Latency = ZeroLatencyModel
	driverB.SetTransport(BatchTransport{N: 4})
	for _, r := range []*Runtime{driverA, driverB} {
		r.BindDowncall(dcReadReg, func(*kernel.Context, uint64) (uint64, error) { return 0, nil })
	}

	const workers = 8
	const iters = 300

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, r := range []*Runtime{driverA, driverB} {
			wg.Add(1)
			go func(w int, r *Runtime) {
				defer wg.Done()
				ctx := k.NewContext(fmt.Sprintf("worker-%d", w))
				for i := 0; i < iters; i++ {
					switch i % 5 {
					case 0:
						_ = r.Call(ctx, hSink)
					case 1:
						_ = r.Call(ctx, hDownFree)
					case 2:
						_ = r.Batch(ctx).Call(hSink).Call(hDownFree).Flush()
					case 3:
						c := r.Counters()
						if c.Upcalls > 0 && c.PerCall == nil {
							t.Error("snapshot lost PerCall")
						}
					case 4:
						if i%60 == 4 {
							r.ResetCounters()
						} else {
							_ = r.Call(ctx, hDownFree)
						}
					}
				}
			}(w, r)
		}
	}
	wg.Wait()

	// After the storm, the counters must still be coherent: a reset followed
	// by a known number of crossings reads back exactly.
	for _, r := range []*Runtime{driverA, driverB} {
		r.ResetCounters()
		ctx := k.NewContext("verify")
		for i := 0; i < 3; i++ {
			if err := r.Call(ctx, hSink); err != nil {
				t.Fatal(err)
			}
		}
		c := r.Counters()
		if c.Trips() != 3 || c.PerCall["xpcbench_sink"] != 3 {
			t.Fatalf("post-storm counters incoherent: %+v", c)
		}
	}
}

// TestConcurrentMarshalPool races the pooled codec path across goroutines:
// each worker syncs its own shared pair on its own runtime, all drawing from
// the shared marshal-buffer and codec-state pools.
func TestConcurrentMarshalPool(t *testing.T) {
	k := newTestKernel()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRuntime(k, fmt.Sprintf("drv-%d", w), ModeDecaf, nil)
			r.Latency = ZeroLatencyModel
			ka := &adapter{Name: fmt.Sprintf("eth%d", w), MsgEnable: int32(w)}
			da := &adapter{}
			if _, err := r.Share(ka, da); err != nil {
				t.Error(err)
				return
			}
			ctx := k.NewContext(fmt.Sprintf("sync-%d", w))
			for i := 0; i < 200; i++ {
				ka.MsgEnable = int32(i)
				if err := r.SyncToUser(ctx, ka); err != nil {
					t.Error(err)
					return
				}
				if da.MsgEnable != int32(i) {
					t.Errorf("worker %d: stale sync %d != %d", w, da.MsgEnable, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
