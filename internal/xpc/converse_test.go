//go:build unix

package xpc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// converseRig drives laneConverse itself over one heap-backed lane: the
// kernel side is a minimal procEpoch whose rings and doorbells are real, and
// the worker is a goroutine with its own views of the same bytes, as a
// second process would have. Its answers are scripted per call.
type converseRig struct {
	pt   *ProcTransport
	ep   *procEpoch
	lane *procLane
	// wsub and wcmp are the fake worker's views; wbell rings the lane's
	// completion doorbell when the kernel side parked on it.
	wsub, wcmp *descRing
	wbell      *fdDoorbell
	// got holds every frame the fake worker took, decoded as it found it.
	got []xdr.Frame
}

func newConverseRig(tb testing.TB, batch int) *converseRig {
	tb.Helper()
	const entries = 4
	region := alignedRegion(laneRegionBytes(1, entries, descSlotBytes))
	kdir, krings, err := carveLanes(region, 1, entries, descSlotBytes)
	if err != nil {
		tb.Fatal(err)
	}
	_, wrings, err := carveLanes(region, 1, entries, descSlotBytes)
	if err != nil {
		tb.Fatal(err)
	}
	laneParent, laneChild, err := socketPair()
	if err != nil {
		tb.Fatal(err)
	}
	subParent, subChild, err := socketPair()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		for _, f := range []interface{ Close() error }{laneParent, laneChild, subParent, subChild} {
			f.Close()
		}
	})
	// The fake worker never parks on the directory, so the submit doorbell
	// is never rung; the lane doorbell is, whenever the holder out-waits
	// its spin budget.
	return &converseRig{
		pt: &ProcTransport{cfg: ProcConfig{Batch: batch}},
		ep: &procEpoch{
			w:    &procWorker{exited: make(chan struct{})},
			dir:  kdir,
			bell: &fdDoorbell{f: subParent},
		},
		lane: &procLane{
			sub:  krings[0].sub,
			cmp:  krings[0].cmp,
			bell: &fdDoorbell{f: laneParent},
			ids:  make([]uint64, batch),
			sums: make([]uint64, batch),
		},
		wsub:  wrings[0].sub,
		wcmp:  wrings[0].cmp,
		wbell: &fdDoorbell{f: laneChild},
	}
}

// serve runs the fake worker for n frames: it takes each frame as soon as
// it is visible, sums the payload it can see (the frame's bytes, or the
// slot's through ring), and answers at once with lie(i, sum) as the
// completion's sum. It reports the first thing that went wrong, or nil.
func (g *converseRig) serve(n int, ring *PayloadRing, lie func(i int, sum uint64) uint64) <-chan error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; {
			slot := g.wsub.pending()
			if slot == nil {
				runtime.Gosched()
				continue
			}
			f, _, err := xdr.DecodeFrame(slot)
			g.wsub.advance()
			if err != nil {
				done <- err
				return
			}
			g.got = append(g.got, f)
			payload := f.Data
			if f.Slot.Valid() {
				if payload, err = ring.Buffer(f.Slot); err != nil {
					done <- err
					return
				}
			}
			var sum uint64
			if len(payload) > 0 {
				sum = payloadSum(payload)
			}
			ack := xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Lane: f.Lane, Status: remoteCallOK, Aux: lie(i, sum)}
			out := g.wcmp.reserve()
			if out == nil {
				done <- errors.New("completion ring full")
				return
			}
			if _, err := xdr.AppendFrame(out[:0], ack); err != nil {
				done <- err
				return
			}
			g.wcmp.publish()
			if g.wcmp.consumerParked() {
				if err := g.wbell.ring(); err != nil {
					done <- err
					return
				}
			}
			i++
		}
		done <- nil
	}()
	return done
}

// TestLaneConverseLyingChecksum: the kernel's half of the payload proof is
// hashed between the frame's encode and its publish — before the head store,
// which would otherwise wait for the slot's freshly written lines — and
// fails a completion whose sum is off. For a 3-call chunk, by copy and by
// slot, a worker that answers call 1 with its sum plus one makes the
// crossing return the checksum mismatch; the engine has stepped call 0
// alone, call 1 is unresolved until the failure path contains it, and call
// 2 aborts. The control worker answers every call instantly with the right
// sum and the chunk resolves whole: each sum is in place before its frame
// can be seen.
func TestLaneConverseLyingChecksum(t *testing.T) {
	for _, tc := range []struct {
		name         string
		bySlot, lies bool
	}{
		{"copy/honest", false, false},
		{"copy/lying", false, true},
		{"slot/honest", true, false},
		{"slot/lying", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newConverseRig(t, 4)
			k := newTestKernel()
			r := newDecafRuntime(k)
			ctx := k.NewContext("converse")
			payloads := seededPayloads(3, 1462)
			names := []string{"xpcbench_sink", "xpcbench_sink", "xpcbench_sink"}
			var chunk []*Submission
			var ring *PayloadRing
			if tc.bySlot {
				ring = NewPayloadRing(4, 2048)
				r.payloadRing.Store(ring)
				g.pt.reg.Store(&ringGeom{slots: 4, slotSize: 2048})
				chunk = make([]*Submission, len(payloads))
				for i, p := range payloads {
					desc, buf, ok := ring.Acquire(len(p))
					if !ok {
						t.Fatal("payload ring exhausted")
					}
					copy(buf, p)
					c := handlerCall(names[i], nil)
					c.Slot = desc
					chunk[i] = r.NewSubmission(c)
				}
			} else {
				chunk = procSubs(r, names, payloads)
			}
			served := g.serve(len(chunk), ring, func(i int, sum uint64) uint64 {
				if tc.lies && i == 1 {
					return sum + 1
				}
				return sum
			})
			eng := r.engine(ctx, kernelSide)
			err := g.pt.laneConverse(r, ctx, g.ep, g.lane, chunk, &eng)
			if werr := <-served; werr != nil {
				t.Fatalf("fake worker: %v", werr)
			}
			if !tc.lies {
				if err != nil {
					t.Fatalf("honest worker: %v", err)
				}
				if eng.n != len(chunk) {
					t.Fatalf("engine stepped %d calls, want %d", eng.n, len(chunk))
				}
				if err := eng.end(); err != nil {
					t.Fatal(err)
				}
				for i, sub := range chunk {
					if c := sub.Completion; !c.settled || c.outcome() != nil {
						t.Fatalf("call %d: settled=%v err=%v", i, c.settled, c.err)
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "payload checksum mismatch") {
				t.Fatalf("lying worker: crossing returned %v, want a checksum mismatch", err)
			}
			if eng.n != 1 {
				t.Fatalf("engine stepped %d calls before the lie, want 1", eng.n)
			}
			if c := chunk[0].Completion; !c.settled || c.outcome() != nil {
				t.Fatalf("call 0: settled=%v err=%v, want success", c.settled, c.err)
			}
			if chunk[1].Completion.settled || chunk[2].Completion.settled {
				t.Fatal("a call behind the lie resolved before the failure path")
			}
			// crossChunk's failure path: the lied-about call is contained,
			// the one behind it aborts.
			eng.fail(chunk[eng.n:], err, true)
			var uf *UserFault
			if ferr := chunk[1].Completion.outcome(); !errors.As(ferr, &uf) {
				t.Fatalf("call 1 resolved %v, want a contained *UserFault", ferr)
			}
			if ferr := chunk[2].Completion.outcome(); !errors.Is(ferr, ErrCrossingAborted) {
				t.Fatalf("call 2 resolved %v, want ErrCrossingAborted", ferr)
			}
		})
	}
}

// TestLaneConverseFramesCarryNoName: no kernel→worker frame names what it
// carries. A call published by laneConverse carries its handler's table
// index in Status and a probe carries nothing; both cross with a name
// length of 0, however long the handler's name.
func TestLaneConverseFramesCarryNoName(t *testing.T) {
	g := newConverseRig(t, 4)
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("converse")
	chunk := append(procSubs(r, []string{"xpctest_count", longNameHandler}, [][]byte{{1}, nil}),
		r.NewSubmission(&Call{Name: "probe_copy", Up: true, Data: []byte{2, 3}}))
	served := g.serve(len(chunk), nil, func(_ int, sum uint64) uint64 { return sum })
	if err := g.pt.laneConverse(r, ctx, g.ep, g.lane, chunk, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
	want := []struct {
		kind   xdr.FrameKind
		status uint32
	}{
		{xdr.FrameCall, registry.Lookup("xpctest_count").ID()},
		{xdr.FrameCall, registry.Lookup(longNameHandler).ID()},
		{xdr.FrameSubmit, 0},
	}
	if len(g.got) != len(want) {
		t.Fatalf("the worker took %d frames, want %d", len(g.got), len(want))
	}
	for i, f := range g.got {
		if f.Kind != want[i].kind || f.Status != want[i].status || f.Name != "" {
			t.Fatalf("frame %d crossed as %v status %d name %q, want %v status %d and no name",
				i, f.Kind, f.Status, f.Name, want[i].kind, want[i].status)
		}
	}
}

// serveDown runs the fake worker for one call of a Down body that lies
// about its downcall: it answers the call frame with a FrameDown whose
// Status is idx, waits for the kernel's FrameDownResult on the submit ring,
// and fails the call with the result's error text, as the worker's body
// would on a failed downcall. It hands back the result frame.
func (g *converseRig) serveDown(idx uint32) <-chan any {
	done := make(chan any, 1)
	publish := func(f xdr.Frame) error {
		out := g.wcmp.reserve()
		if out == nil {
			return errors.New("completion ring full")
		}
		if _, err := xdr.AppendFrame(out[:0], f); err != nil {
			return err
		}
		g.wcmp.publish()
		if g.wcmp.consumerParked() {
			return g.wbell.ring()
		}
		return nil
	}
	take := func() (xdr.Frame, error) {
		for {
			if slot := g.wsub.pending(); slot != nil {
				f, _, err := xdr.DecodeFrame(slot)
				g.wsub.advance()
				return f, err
			}
			runtime.Gosched()
		}
	}
	go func() {
		call, err := take()
		if err == nil {
			err = publish(xdr.Frame{Kind: xdr.FrameDown, ID: call.ID, Lane: call.Lane, Status: idx, Aux: 7})
		}
		var res xdr.Frame
		if err == nil {
			res, err = take()
		}
		if err == nil {
			err = publish(xdr.Frame{Kind: xdr.FrameComplete, ID: call.ID, Lane: call.Lane, Status: remoteCallFailed, Name: res.Name})
		}
		if err != nil {
			done <- err
			return
		}
		done <- res
	}()
	return done
}

// TestLaneConverseLyingDowncall: a worker whose body sends a FrameDown with
// an index past the downcall table, or one of a declared downcall this
// Runtime bound no target to, gets what an unknown downcall always got — a
// FrameDownResult with the error — and the call fails with that error as a
// plain dispatch outcome: no protocol violation, no target run, no downcall
// counted.
func TestLaneConverseLyingDowncall(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  uint32
		want string
	}{
		{"past-table", registry.MaxDowncalls + 5, fmt.Sprintf(`"#%d"`, registry.MaxDowncalls+5)},
		{"past-declared", uint32(len(registry.DowncallNames())), fmt.Sprintf(`"#%d"`, len(registry.DowncallNames()))},
		{"unbound", uint32(dcUnbound), `"xpctest_unbound"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newConverseRig(t, 4)
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.BindDowncall(dcReadReg, func(*kernel.Context, uint64) (uint64, error) {
				t.Error("a lying downcall index reached a bound target")
				return 0, nil
			})
			ctx := k.NewContext("converse")
			chunk := procSubs(r, []string{"xpctest_down"}, [][]byte{nil})
			served := g.serveDown(tc.idx)
			eng := r.engine(ctx, kernelSide)
			if err := g.pt.laneConverse(r, ctx, g.ep, g.lane, chunk, &eng); err != nil {
				t.Fatalf("the conversation failed: %v, want the downcall refused inside it", err)
			}
			res, ok := (<-served).(xdr.Frame)
			if !ok {
				t.Fatal("the fake worker saw no downcall result")
			}
			if res.Kind != xdr.FrameDownResult || res.Status != 1 || !strings.Contains(res.Name, "no downcall registered for "+tc.want) {
				t.Fatalf("downcall result %+v, want status 1 naming %s", res, tc.want)
			}
			err := eng.end()
			if cerr := chunk[0].Completion.outcome(); err == nil || cerr == nil || !strings.Contains(cerr.Error(), "no downcall registered") || IsUserFault(cerr) {
				t.Fatalf("call resolved %v (chunk %v), want the refused downcall's plain error", cerr, err)
			}
			if c := r.Counters(); c.Downcalls != 0 || c.WorkerDowncalls != 0 {
				t.Fatalf("Downcalls %d, WorkerDowncalls %d after a refused downcall, want 0", c.Downcalls, c.WorkerDowncalls)
			}
		})
	}
}
