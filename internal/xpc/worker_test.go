//go:build unix

package xpc

import (
	"errors"
	"math/rand/v2"
	"runtime"
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

// TestPullLinesTouchesEveryLine: pullLines must load at least one byte of
// every 64-byte line a payload spans, at any length and any offset into the
// line, and never read outside the payload (its capacity is clipped). Each
// line's share of the payload is lit alone in a region of zeroes; only a
// load from that line can return it.
func TestPullLinesTouchesEveryLine(t *testing.T) {
	region := alignedRegion(64 * 8)
	for off := 0; off < 64; off++ {
		for n := 0; off+n <= len(region)-64; n++ {
			b := region[off : off+n : off+n]
			if n == 0 {
				if got := pullLines(b); got != 0 {
					t.Fatalf("empty payload pulled %#x", got)
				}
				continue
			}
			for line := off / 64; line <= (off+n-1)/64; line++ {
				clear(region)
				for i := max(line*64, off); i < min(line*64+64, off+n); i++ {
					region[i] = 0xFF
				}
				if got := pullLines(b); got != 0xFF {
					t.Fatalf("offset %d, %d bytes: line %d never loaded", off, n, line)
				}
			}
		}
	}
}

func BenchmarkPayloadSum(b *testing.B) {
	p := seededPayloads(1, 1462)[0]
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		sinkSum = payloadSum(p)
	}
}

// laneRig is the worker's lane server over one heap-backed lane: the kernel
// side of the lane is driven by the test itself. The submit doorbell is an
// in-process channel, so a body parked on a downcall result can be woken.
type laneRig struct {
	*laneServer
	lr   laneRings
	bell chanDoorbell
	seq  uint64
}

const (
	rigEntries  = 32
	rigSlots    = 32
	rigSlotSize = 2048
)

func newLaneRig(t testing.TB) *laneRig { return newLaneRigEntries(t, rigEntries) }

func newLaneRigEntries(t testing.TB, entries int) *laneRig {
	t.Helper()
	dir, rings, err := carveLanes(alignedRegion(laneRegionBytes(1, entries, descSlotBytes)), 1, entries, descSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	g := &laneRig{lr: rings[0], bell: newChanDoorbell()}
	hdr := layoutAt(alignedRegion(layoutHdrSize))
	hdr.ringGeom.Store(rigSlots<<32 | rigSlotSize)
	// The completion ring's consumer never parks here, so the lane doorbell
	// is never rung and needs no descriptor.
	g.laneServer = newLaneServer(dir, rings, []doorbell{&fdDoorbell{}}, descSlotBytes,
		make([]byte, rigSlots*rigSlotSize), hdr, g.bell, nil, registry.NewState())
	return g
}

// publish encodes one FrameCall of the named handler into the submit ring
// the way laneCrossOn does — its table index in Status, no name — and
// returns the sum the kernel side would hold for it. bySlot stages the
// payload in the payload-ring region and sends only its descriptor.
func (g *laneRig) publish(t testing.TB, name string, payload []byte, left int, bySlot bool) uint64 {
	t.Helper()
	sum, err := g.publishFrame(registry.Lookup(name).ID(), payload, left, bySlot)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// publishFrame is publish by table index and without the testing.TB: the
// per-frame path of visit, which BenchmarkWorkerServeLane times.
func (g *laneRig) publishFrame(id uint32, payload []byte, left int, bySlot bool) (uint64, error) {
	g.seq++
	f := xdr.Frame{Kind: xdr.FrameCall, ID: g.seq, Up: true, Status: id, Aux: uint64(left)}
	if bySlot {
		idx := uint32(g.seq % rigSlots)
		copy(g.ringMem[idx*rigSlotSize:], payload)
		f.Slot = xdr.SlotDescriptor{Index: idx, Length: uint32(len(payload)), Generation: 1}
	} else {
		f.Data = payload
	}
	slot := g.lr.sub.reserve()
	if slot == nil {
		return 0, errors.New("submit ring full")
	}
	if _, err := xdr.AppendFrame(slot[:0], f); err != nil {
		return 0, err
	}
	g.lr.sub.publish()
	if len(payload) == 0 {
		return 0, nil
	}
	return payloadSum(payload), nil
}

// serve runs one serveLane visit.
func (g *laneRig) serve() int { return g.serveLane(&g.lanes[0]) }

// complete consumes the next completion, copying it out as the kernel side
// does.
func (g *laneRig) complete(t testing.TB) xdr.Frame {
	t.Helper()
	f, err := g.next()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// next is complete without the testing.TB, for visit and answer.
func (g *laneRig) next() (xdr.Frame, error) {
	slot := g.lr.cmp.pending()
	for ; slot == nil; slot = g.lr.cmp.pending() {
		runtime.Gosched()
	}
	f, _, err := xdr.DecodeFrame(slot)
	g.lr.cmp.advance()
	return f, err
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
	if skip := g.lanes[0].skip; skip != 0 {
		t.Fatalf("skip counter = %d after the chunk, want 0", skip)
	}
	if got := g.st.Load(testCellServed); got != 2 {
		t.Fatalf("%d bodies ran to success, want 2 (first of the chunk, and the next chunk)", got)
	}
}

// TestServeLaneUnknownIndex: a FrameCall whose table index is past the
// worker's table is acknowledged as a bad frame naming the miss, with the
// payload proof still in place, and no body runs; the call behind it on the
// lane is served as usual.
func TestServeLaneUnknownIndex(t *testing.T) {
	g := newLaneRig(t)
	n := uint32(len(registry.Names()))
	for _, id := range []uint32{n, ^uint32(0)} {
		sum, err := g.publishFrame(id, []byte{9}, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.serve(); got != 1 {
			t.Fatalf("index %d: served %d frames, want 1", id, got)
		}
		ack := g.complete(t)
		if ack.Status != wireStatusBadFrame || ack.Name != "no handler registered" || ack.Aux != sum {
			t.Fatalf("index %d: completion %+v, want a bad-frame refusal carrying sum %#x", id, ack, sum)
		}
	}
	if got := g.st.Load(testCellServed); got != 0 {
		t.Fatalf("%d bodies ran for indices outside the table", got)
	}
	g.publish(t, "xpctest_count", []byte{1}, 0, false)
	if g.serve() != 1 || g.complete(t).Status != remoteCallOK || g.st.Load(testCellServed) != 1 {
		t.Fatal("the call behind the refused indices was not served")
	}
}

// answer plays the lane holder's half of one downcall: take the FrameDown
// off the completion ring, publish its result on the submit ring, wake the
// server if it parked. errText, when set, makes it a failed downcall.
func (g *laneRig) answer(t testing.TB, res uint64, errText string) xdr.Frame {
	t.Helper()
	req, err := g.next()
	if err != nil {
		t.Fatal(err)
	}
	ack := xdr.Frame{Kind: xdr.FrameDownResult, ID: req.ID, Aux: res, Lane: req.Lane}
	if errText != "" {
		ack.Status, ack.Name = 1, errText
	}
	slot := g.lr.sub.reserve()
	if slot == nil {
		t.Fatal("submit ring full under a downcall result")
	}
	if _, err := xdr.AppendFrame(slot[:0], ack); err != nil {
		t.Fatal(err)
	}
	g.lr.sub.publish()
	if g.dir.parked.Swap(0) == 1 {
		_ = g.bell.ring()
	}
	return req
}

// TestServeLaneDowncallConversation drives the worker's half of a body that
// calls down, in-process, on a 32-entry lane and on a 1-entry one: each
// FrameDown arrives on the completion ring carrying the executing call's ID
// and lane, with the submit ring already past the call's own frame and every
// earlier result — so the result the test publishes is the next entry the
// body sees; 2×entries+1 downcalls wrap both rings; the first answer is
// withheld until the server has parked, so the wake path runs; and the
// call's inline payload, moved to the scratch buffer, is intact at the end.
func TestServeLaneDowncallConversation(t *testing.T) {
	for _, entries := range []int{rigEntries, 1} {
		g := newLaneRigEntries(t, entries)
		n := 2*entries + 1
		payload := append([]byte{byte(n)}, seededPayloads(1, 1400)[0]...)
		base := g.lr.sub.hdr.tail.Load()
		sum := g.publish(t, "xpctest_down_many", payload, 0, false)
		served := make(chan int)
		go func() { served <- g.serve() }()
		var want uint64
		for i := 0; i < n; i++ {
			if i == 0 {
				for g.dir.parked.Load() == 0 {
					runtime.Gosched()
				}
			}
			req := g.answer(t, uint64(i)*3, "")
			want += uint64(i) * 3
			if req.Kind != xdr.FrameDown || req.ID != g.seq || req.Lane != 0 || req.Status != uint32(dcReadReg) || req.Name != "" || req.Aux != uint64(i) {
				t.Fatalf("entries=%d: downcall %d arrived as %+v", entries, i, req)
			}
		}
		ack := g.complete(t)
		if ack.Kind != xdr.FrameComplete || ack.ID != g.seq || ack.Status != remoteCallOK || ack.Aux != sum {
			t.Fatalf("entries=%d: completion %+v, want OK with sum %#x", entries, ack, sum)
		}
		if got := <-served; got != 1 {
			t.Fatalf("entries=%d: the visit served %d frames, want 1 (results are not visits)", entries, got)
		}
		if tail := g.lr.sub.hdr.tail.Load(); tail != base+1+uint64(n) {
			t.Fatalf("entries=%d: submit tail moved %d, want %d (the call and its %d results)", entries, tail-base, 1+n, n)
		}
		if got := g.st.Load(testCellDown); got != want {
			t.Fatalf("entries=%d: body summed %d from its downcalls, want %d", entries, got, want)
		}
		if got, want := g.st.Load(testCellEcho), uint64(payload[len(payload)-1]); got != want {
			t.Fatalf("entries=%d: body read payload byte %#x after its downcalls, want %#x", entries, got, want)
		}
	}
}

// TestServeLaneDowncallOrdering: the submit slot of a downcall-making call is
// released before its body runs — by the time its first FrameDown is visible
// the tail is past it — and a failed downcall comes back to the body as an
// error carrying the kernel side's text, which fails the call like any other
// error: the chunk's next handler frame, published (as the holder's barrier
// has it) only once that completion is consumed, is skipped.
func TestServeLaneDowncallOrdering(t *testing.T) {
	g := newLaneRig(t)
	base := g.lr.sub.hdr.tail.Load()
	g.publish(t, "xpctest_down", nil, 1, false)
	served := make(chan int)
	go func() { served <- g.serve() }()
	req := g.answer(t, 0, "no such register")
	if tail := g.lr.sub.hdr.tail.Load(); tail < base+1 {
		t.Fatalf("FrameDown visible with the submit tail %d entries on, want the call's slot released", tail-base)
	}
	if req.ID != g.seq {
		t.Fatalf("FrameDown carries id %d, want the executing call's %d", req.ID, g.seq)
	}
	if ack := g.complete(t); ack.Status != remoteCallFailed || ack.Name != "no such register" {
		t.Fatalf("completion of the failed body: %+v", ack)
	}
	if got := <-served; got != 1 {
		t.Fatalf("served %d frames, want 1", got)
	}
	g.publish(t, "xpctest_count", []byte{7}, 0, false)
	if got := g.serve(); got != 1 {
		t.Fatalf("served %d frames behind the barrier, want 1", got)
	}
	if ack := g.complete(t); ack.Status != remoteCallSkipped {
		t.Fatalf("completion behind the failed body: %+v, want skipped", ack)
	}
	if got := g.st.Load(testCellServed); got != 0 {
		t.Fatalf("%d bodies ran behind the failed one", got)
	}
}

// visit is one steady-state serve visit from both ends: a full chunk
// published, served, and its completions consumed. Its frames take the
// rig's paths without testing.TB: t.Helper per frame would outweigh the
// serve visit in BenchmarkWorkerServeLane.
func (g *laneRig) visit(t testing.TB, pool [][]byte, bySlot bool) {
	id := registry.Lookup("xpctest_count").ID()
	for i, p := range pool {
		if _, err := g.publishFrame(id, p, len(pool)-1-i, bySlot); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.serve(); n != len(pool) {
		t.Fatalf("served %d frames, want %d", n, len(pool))
	}
	for range pool {
		if _, err := g.next(); err != nil {
			t.Fatal(err)
		}
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
