package xpc

import (
	"fmt"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
)

// The benchmark handler is registered at init() so the re-exec'd worker (a
// copy of this test binary) holds it too.
func init() {
	registry.Register("xpcbench_sink", registry.Handler{Fn: func(c *registry.Ctx) error { return nil }})
}

// BenchmarkUpcallPerCall is the seed crossing path: one full crossing per
// call, shared object synchronized both ways.
func BenchmarkUpcallPerCall(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka, da := &adapter{Name: "eth0"}, &adapter{}
	if _, err := r.Share(ka, da); err != nil {
		b.Fatal(err)
	}
	ctx := k.NewContext("bench")
	noop := func(uctx *kernel.Context) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Upcall(ctx, "fn", noop, ka); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpcallHandlerPerCall is the blocking sugar over the handler table:
// one registered body dispatched inline per call, payload by copy.
func BenchmarkUpcallHandlerPerCall(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("bench")
	payload := make([]byte, 1462)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.UpcallHandlerData(ctx, "xpcbench_sink", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcHandlerFlush measures the whole handler-call path over a real
// worker process — queue N calls, flush, wait — by copy and by slot. CI runs
// it with -benchmem and gates allocs/op at zero. The builder is reused
// across flushes (Runtime.Batch itself is one object by design).
func BenchmarkProcHandlerFlush(b *testing.B) {
	for _, tc := range []struct {
		name   string
		n      int
		bySlot bool
	}{{"N=1", 1, false}, {"N=32", 32, false}, {"slot_N=32", 32, true}} {
		b.Run(tc.name, func(b *testing.B) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.Latency = ZeroLatencyModel
			pt, err := NewProcTransport(ProcConfig{Batch: 32})
			if err != nil {
				b.Skip(err)
			}
			r.SetTransport(pt)
			defer r.SetTransport(nil)
			ctx := k.NewContext("bench")
			payload := make([]byte, 1462)
			ps := make([]Payload, tc.n)
			for i := range ps {
				ps[i] = Payload{Data: payload}
			}
			if tc.bySlot {
				ring, err := r.NewRing(0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.RegisterPayloadRing(ctx, ring); err != nil {
					b.Fatal(err)
				}
				for i := range ps {
					ps[i] = r.AcquirePayload(payload)
				}
				defer r.ReleasePayloads(ps)
			}
			batch := r.Batch(ctx)
			flush := func() {
				for _, p := range ps {
					batch.UpcallHandlerPayload("xpcbench_sink", p)
				}
				if err := batch.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			flush() // spawn the worker, grow the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flush()
			}
		})
	}
}

// BenchmarkCrossingBatched measures N calls per crossing through the Batch
// builder at several batch sizes; compare ns/op against the per-call
// benchmark times N.
func BenchmarkCrossingBatched(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.SetTransport(BatchTransport{N: n})
			ctx := k.NewContext("bench")
			payload := make([]byte, 1462)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := r.Batch(ctx)
				for j := 0; j < n; j++ {
					batch.UpcallHandlerData("xpcbench_sink", payload)
				}
				if err := batch.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossingPerCallData is the per-call equivalent of the batched
// benchmark: the same payload calls, each paying a full crossing.
func BenchmarkCrossingPerCallData(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("bench")
	payload := make([]byte, 1462)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := r.Batch(ctx)
		batch.UpcallHandlerData("xpcbench_sink", payload)
		if err := batch.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncToUser isolates the pooled marshal path of one object sync.
func BenchmarkSyncToUser(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka, da := &adapter{Name: "eth0", MsgEnable: 3}, &adapter{}
	if _, err := r.Share(ka, da); err != nil {
		b.Fatal(err)
	}
	ctx := k.NewContext("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.SyncToUser(ctx, ka); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounters measures the contention-free counter fast path.
func BenchmarkCounters(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.countTrip("fn", true)
		}
	})
}
