package xpc

import (
	"sync"
	"testing"

	"decafdrivers/internal/kernel"
)

// TestIncrementalMigration reproduces the §5.3 development flow: "when
// migrating code to Java, it is convenient to move one function at a time
// and then test the system ... The ability to execute either Java or C
// versions of a function during development greatly simplified conversion,
// as it allowed us to eliminate any new bugs in our Java implementation by
// comparing its behavior to that of the original C code."
//
// The same operation runs once as kernel-resident C (the body calls down
// into a kernel-side target that writes the kernel copy) and once as a
// decaf-driver function (the body computes the value itself and hands it
// back through a state cell the kernel adopts); the observable kernel state
// must match.
func TestIncrementalMigration(t *testing.T) {
	run := func(useDecafVersion bool) adapter {
		k := newTestKernel()
		r := newDecafRuntime(k)
		ka := &adapter{MsgEnable: 1}
		ctx := k.NewContext("t")

		// The operation under migration: set MsgEnable to 7.
		if useDecafVersion {
			// Converted: the decaf body computes the value; the kernel adopts
			// the cell it left.
			if err := r.UpcallHandlerData(ctx, "xpctest_count", []byte{7}); err != nil {
				t.Fatal(err)
			}
			ka.MsgEnable = int32(r.SharedState().Load(testCellEcho))
		} else {
			// Staged: still C, running kernel-side on the kernel copy.
			r.RegisterDowncall("xpctest_read_reg", func(_ *kernel.Context, arg uint64) (uint64, error) {
				ka.MsgEnable = int32(arg)
				return arg, nil
			})
			if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
				t.Fatal(err)
			}
		}
		return *ka
	}

	cVersion := run(false)
	javaVersion := run(true)
	if cVersion.MsgEnable != javaVersion.MsgEnable {
		t.Fatalf("library version %+v != decaf version %+v", cVersion, javaVersion)
	}
	if cVersion.MsgEnable != 7 {
		t.Fatalf("operation did not reach the kernel: %+v", cVersion)
	}
}

// TestConcurrentUpcallsSafe drives many concurrent upcalls through one
// runtime, each worker syncing its own shared object around them — counters
// and trackers must stay consistent under -race.
func TestConcurrentUpcallsSafe(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	const workers = 8
	const iters = 50

	type pair struct{ ka, da *adapter }
	pairs := make([]pair, workers)
	for i := range pairs {
		pairs[i] = pair{&adapter{MsgEnable: int32(i)}, &adapter{}}
		if _, err := r.Share(pairs[i].ka, pairs[i].da); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := k.NewContext("worker")
			for i := 0; i < iters; i++ {
				err := r.SyncToUser(ctx, pairs[w].ka)
				if err == nil {
					err = r.UpcallHandler(ctx, "xpcbench_sink")
				}
				if err == nil {
					pairs[w].da.Tx.Head++
					err = r.SyncToKernel(ctx, pairs[w].ka)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := r.Counters()
	if c.Upcalls != workers*iters {
		t.Fatalf("upcalls = %d, want %d", c.Upcalls, workers*iters)
	}
	for w := range pairs {
		if pairs[w].ka.Tx.Head != iters {
			t.Fatalf("worker %d: kernel Tx.Head = %d, want %d", w, pairs[w].ka.Tx.Head, iters)
		}
	}
}

// TestConcurrentShareUnshare stresses the shared-object registry.
func TestConcurrentShareUnshare(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ka, da := &adapter{}, &adapter{}
				if _, err := r.Share(ka, da); err != nil {
					t.Error(err)
					return
				}
				if !r.Unshare(ka) {
					t.Error("unshare failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.SharedCount() != 0 {
		t.Fatalf("leaked %d shared objects", r.SharedCount())
	}
}
