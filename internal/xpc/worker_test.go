//go:build unix

package xpc

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/xdr"
)

// seededPayloads builds n payloads the way the wall-clock benchmark's pool
// does: every byte drawn from a seeded PCG stream.
func seededPayloads(n, size int) [][]byte {
	rng := rand.New(rand.NewPCG(1, 0x9e3779b97f4a7c15))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		for j := range out[i] {
			out[i][j] = byte(rng.Uint32())
		}
	}
	return out
}

// TestPayloadSumGolden pins the function itself: both processes must compute
// the same sum, so a change to payloadSum has to show up in review. The
// function is XXH64 with seed 0; these are its published vectors.
func TestPayloadSumGolden(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
		{"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1},
	} {
		if got := payloadSum([]byte(tc.in)); got != tc.want {
			t.Errorf("payloadSum(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// TestPayloadSumDetectsDamage: the sum is the crossing's proof that the
// worker saw the bytes the kernel staged, so every way a transfer can go
// wrong by a little — one bit, a short or long read, a slot of zeroes of the
// wrong length — has to change it.
func TestPayloadSumDetectsDamage(t *testing.T) {
	pool := seededPayloads(64, 1462)
	p := pool[0]
	want := payloadSum(p)
	for i := range p {
		for bit := 0; bit < 8; bit++ {
			p[i] ^= 1 << bit
			if payloadSum(p) == want {
				t.Fatalf("flipping bit %d of byte %d leaves the sum unchanged", bit, i)
			}
			p[i] ^= 1 << bit
		}
	}
	long := append(append([]byte(nil), p...), pool[1][:33]...)
	for d := 1; d <= 33; d++ {
		if payloadSum(p[:len(p)-d]) == want {
			t.Fatalf("truncating by %d bytes leaves the sum unchanged", d)
		}
		if payloadSum(long[:len(p)+d]) == want {
			t.Fatalf("extending by %d bytes leaves the sum unchanged", d)
		}
	}
	zeros := make([]byte, 1463+33)
	for n := 0; n < len(zeros); n++ {
		if payloadSum(zeros[:n]) == payloadSum(zeros[:n+1]) {
			t.Fatalf("all-zero payloads of %d and %d bytes share a sum", n, n+1)
		}
	}
	seen := map[uint64]int{}
	for i, b := range pool {
		s := payloadSum(b)
		if j, dup := seen[s]; dup {
			t.Fatalf("seeded payloads %d and %d share the sum %#x", j, i, s)
		}
		seen[s] = i
	}
	if avg := testing.AllocsPerRun(100, func() { sinkSum = payloadSum(p) }); avg != 0 {
		t.Fatalf("payloadSum allocates %.1f objects per call, want 0", avg)
	}
}

var sinkSum uint64

func BenchmarkPayloadSum(b *testing.B) {
	p := seededPayloads(1, 1462)[0]
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		sinkSum = payloadSum(p)
	}
}

// laneRig is one heap-backed lane plus the worker-side arguments serveLane
// takes: the kernel side of the lane is driven by the test itself.
type laneRig struct {
	lr   laneRings
	mem  []byte // payload-ring region: rigSlots slots of rigSlotSize bytes
	geom atomic.Uint64
	st   *registry.State
	ctx  registry.Ctx
	skip int
	seq  uint64
}

const (
	rigEntries  = 32
	rigSlots    = 32
	rigSlotSize = 2048
)

func newLaneRig(t testing.TB) *laneRig {
	t.Helper()
	_, rings, err := carveLanes(alignedRegion(laneRegionBytes(1, rigEntries, descSlotBytes)), 1, rigEntries, descSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	g := &laneRig{lr: rings[0], mem: make([]byte, rigSlots*rigSlotSize), st: registry.NewState()}
	g.geom.Store(rigSlots<<32 | rigSlotSize)
	return g
}

// publish encodes one FrameCall into the submit ring the way laneCrossOn
// does and returns the sum the kernel side would hold for it. bySlot stages
// the payload in the payload-ring region and sends only its descriptor.
func (g *laneRig) publish(t testing.TB, name string, payload []byte, left int, bySlot bool) uint64 {
	t.Helper()
	g.seq++
	f := xdr.Frame{Kind: xdr.FrameCall, ID: g.seq, Up: true, Name: name, Aux: uint64(left)}
	if bySlot {
		idx := uint32(g.seq % rigSlots)
		copy(g.mem[idx*rigSlotSize:], payload)
		f.Slot = xdr.SlotDescriptor{Index: idx, Length: uint32(len(payload)), Generation: 1}
	} else {
		f.Data = payload
	}
	slot := g.lr.sub.reserve()
	if slot == nil {
		t.Fatal("submit ring full")
	}
	if _, err := xdr.AppendFrame(slot[:0], f); err != nil {
		t.Fatal(err)
	}
	g.lr.sub.publish()
	if len(payload) == 0 {
		return 0
	}
	return payloadSum(payload)
}

// serve runs one serveLane visit. The completion ring's consumer never
// parks here, so the doorbell is never rung and needs no descriptor.
func (g *laneRig) serve() int {
	return serveLane(g.lr, &fdDoorbell{}, 0, g.mem, &g.geom, nil, g.st, &g.ctx, &g.skip)
}

// complete consumes the next completion, copying it out as the kernel side
// does.
func (g *laneRig) complete(t testing.TB) xdr.Frame {
	t.Helper()
	slot := g.lr.cmp.pending()
	for ; slot == nil; slot = g.lr.cmp.pending() {
		runtime.Gosched()
	}
	f, _, err := xdr.DecodeFrame(slot)
	if err != nil {
		t.Fatal(err)
	}
	g.lr.cmp.advance()
	return f
}

// TestServeLaneChunk drives the worker's serve visit in-process over a
// 32-call chunk, once with copy payloads and once with slot payloads: every
// acknowledgement carries the sum of the payload the handler was given, and
// by the time completion i is visible the submit ring has moved past frame i
// — the invariant laneCrossOn's "a full submit ring is corruption" rests on,
// now that the slot is held across the handler.
func TestServeLaneChunk(t *testing.T) {
	pool := seededPayloads(rigEntries, 1462)
	for _, bySlot := range []bool{false, true} {
		g := newLaneRig(t)
		base := g.lr.sub.hdr.tail.Load()
		sums := make([]uint64, len(pool))
		for i, p := range pool {
			sums[i] = g.publish(t, "xpctest_count", p, len(pool)-1-i, bySlot)
		}
		served := make(chan int)
		go func() { served <- g.serve() }()
		for i := range pool {
			ack := g.complete(t)
			if tail := g.lr.sub.hdr.tail.Load(); tail < base+uint64(i)+1 {
				t.Fatalf("slot=%v: completion %d visible with submit tail at %d", bySlot, i, tail-base)
			}
			if ack.Kind != xdr.FrameComplete || ack.ID != uint64(i+1) || ack.Status != remoteCallOK {
				t.Fatalf("slot=%v: completion %d = %+v", bySlot, i, ack)
			}
			if ack.Aux != sums[i] {
				t.Fatalf("slot=%v: completion %d carries sum %#x, kernel side holds %#x", bySlot, i, ack.Aux, sums[i])
			}
		}
		if n := <-served; n != len(pool) {
			t.Fatalf("slot=%v: serveLane served %d frames, want %d", bySlot, n, len(pool))
		}
		if got := g.st.Load(testCellServed); got != uint64(len(pool)) {
			t.Fatalf("slot=%v: %d bodies ran, want %d", bySlot, got, len(pool))
		}
		if got, want := g.st.Load(testCellEcho), uint64(pool[len(pool)-1][0]); got != want {
			t.Fatalf("slot=%v: last body read payload byte %#x, want %#x", bySlot, got, want)
		}
	}
}

// TestServeLaneChunkAbort: a body failing mid-chunk arms the lane's skip
// counter with the handler frames left in the chunk; those are acknowledged
// unexecuted, the counter is spent when the chunk ends, and the next chunk
// runs.
func TestServeLaneChunkAbort(t *testing.T) {
	g := newLaneRig(t)
	payloads := [][]byte{{0}, {1}, {0}, {0}, {0}} // a chunk of four, then the next chunk
	left := []int{3, 2, 1, 0, 0}
	for i, p := range payloads {
		g.publish(t, "xpctest_fail", p, left[i], false)
	}
	if n := g.serve(); n != len(payloads) {
		t.Fatalf("served %d frames, want %d", n, len(payloads))
	}
	want := []uint32{remoteCallOK, remoteCallFailed, remoteCallSkipped, remoteCallSkipped, remoteCallOK}
	for i, w := range want {
		ack := g.complete(t)
		if ack.Status != w {
			t.Fatalf("completion %d status %d, want %d", i, ack.Status, w)
		}
		if w == remoteCallFailed && ack.Name != "requested failure" {
			t.Fatalf("failed completion carries %q", ack.Name)
		}
		// The proof does not depend on how the body fared.
		if ack.Aux != payloadSum(payloads[i]) {
			t.Fatalf("completion %d sum %#x, want %#x", i, ack.Aux, payloadSum(payloads[i]))
		}
	}
	if g.skip != 0 {
		t.Fatalf("skip counter = %d after the chunk, want 0", g.skip)
	}
	if got := g.st.Load(testCellServed); got != 2 {
		t.Fatalf("%d bodies ran to success, want 2 (first of the chunk, and the next chunk)", got)
	}
}

// visit is one steady-state serve visit from both ends: a full chunk
// published, served, and its completions consumed.
func (g *laneRig) visit(t testing.TB, pool [][]byte, bySlot bool) {
	for i, p := range pool {
		g.publish(t, "xpctest_count", p, len(pool)-1-i, bySlot)
	}
	if n := g.serve(); n != len(pool) {
		t.Fatalf("served %d frames, want %d", n, len(pool))
	}
	for range pool {
		g.complete(t)
	}
}

// TestServeLaneAllocFree: the worker half of a crossing — decode in place,
// checksum, resolve the handler, run it, acknowledge — allocates nothing per
// call on either payload path. This is the invariant the CI allocation gate
// pins (see BenchmarkWorkerServeLane).
func TestServeLaneAllocFree(t *testing.T) {
	pool := seededPayloads(rigEntries, 1462)
	for _, bySlot := range []bool{false, true} {
		g := newLaneRig(t)
		g.visit(t, pool, bySlot)
		if avg := testing.AllocsPerRun(50, func() { g.visit(t, pool, bySlot) }); avg != 0 {
			t.Fatalf("slot=%v: a serve visit allocates %.1f objects per 32-call chunk, want 0", bySlot, avg)
		}
	}
}

// BenchmarkWorkerServeLane measures one 32-call copy-payload chunk through
// the worker's serve visit (publish and completion drain included). CI runs
// it with -benchmem and gates allocs/op at zero.
func BenchmarkWorkerServeLane(b *testing.B) {
	pool := seededPayloads(rigEntries, 1462)
	g := newLaneRig(b)
	g.visit(b, pool, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.visit(b, pool, false)
	}
}
