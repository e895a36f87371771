//go:build unix

package xpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xdr"
)

// The hidden worker mode: a ProcTransport re-execs the current binary with
// workerEnv set and the socketpair/shm/doorbell descriptors at these fixed
// numbers; the per-lane completion doorbells follow from workerLaneBellFD,
// one per carved lane. Binaries that may host a ProcTransport (decafrun,
// decafbench, test binaries via TestMain) call MaybeRunWorker first thing
// in main.
const (
	workerEnv        = "DECAF_XPC_PROC_WORKER"
	workerSockFD     = 3
	workerShmFD      = 4
	workerBellFD     = 5
	workerLaneBellFD = 6
	workerOKExit     = 0
	workerErrExit    = 3
)

// Worker-side wire-protocol statuses (Frame.Status). Dispatch outcomes for
// handler-table calls extend these: see the remoteCall* constants in
// handler.go (wireStatusOK doubles as remoteCallOK).
const (
	wireStatusOK uint32 = iota
	wireStatusNoRing
	wireStatusBadSlot
	wireStatusBadFrame
)

// MaybeRunWorker turns the current process into a decaf XPC worker and never
// returns when the worker environment variable is set; otherwise it is a
// no-op. Every binary that can host a ProcTransport must call it before any
// other work (including flag parsing): the transport re-execs the running
// binary to obtain the decaf-side process, and this hook is what makes the
// re-exec land in the worker loop instead of the program's own main.
func MaybeRunWorker() {
	if os.Getenv(workerEnv) != "1" {
		return
	}
	os.Exit(runWorker())
}

// runWorker is the decaf-side process: it maps the shared payload region,
// then serves the wire protocol — decode each frame, resolve slot
// descriptors against its own mapping (checksumming the payload bytes it
// can actually see, which is the proof the mapping is shared), and
// acknowledge. It exits 0 on FrameShutdown or a clean EOF (the parent died
// or closed), non-zero on a protocol violation.
func runWorker() int {
	sock := os.NewFile(workerSockFD, "xpc-worker-sock")
	shmf := os.NewFile(workerShmFD, "xpc-worker-shm")
	bell := os.NewFile(workerBellFD, "xpc-worker-bell")
	if sock == nil || shmf == nil || bell == nil {
		fmt.Fprintln(os.Stderr, "xpc worker: missing inherited descriptors")
		return workerErrExit
	}
	st, err := shmf.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpc worker: shm stat:", err)
		return workerErrExit
	}
	mem, err := mapShared(shmf, int(st.Size()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpc worker:", err)
		return workerErrExit
	}
	defer func() { _ = shmf.Close() }()

	br := bufio.NewReader(sock)
	bw := bufio.NewWriter(sock)
	// geom is the registered payload-ring geometry, packed exactly as the
	// FrameRingRegister Aux (slots<<32 | slotSize, zero = none). It is
	// atomic because two goroutines resolve slot descriptors against it:
	// this wire loop (socketpair fallback path) and the lane server.
	// descArea is the region tail the lane rings own; payload geometries
	// must fit in front of it (wire-loop-only, plain var). traceArea is the
	// flight-recorder ring area behind even that (FrameTraceRing, optional,
	// always published before FrameDescRing); wring is the worker's own
	// trace ring — the last of the carved rings — nil when tracing is off.
	var geom atomic.Uint64
	var descArea int
	var traceArea int
	var wring *trace.Ring
	// wstate is the handler table's shared state: heap-backed until the
	// parent maps the shm window with FrameStateMap (always before
	// FrameDescRing, so the lane server is spawned with the final binding).
	// stateArea is the window's size, subtracted from the payload bound.
	wstate := registry.NewState()
	var stateArea int
	// stash holds frames read off the socket while a dispatching handler
	// awaited its FrameDownResult: the parent writes a whole chunk before
	// reading, so the chunk's remaining frames sit ahead of the result in
	// the stream. They replay, in order, before the next socket read.
	var stash []xdr.Frame
	// sockSkip is the socketpair path's chunk-abort counter and sockCtx its
	// dispatch context (see callAck).
	var sockSkip int
	var sockCtx registry.Ctx
	reply := func(f xdr.Frame) error {
		wire, err := xdr.AppendFrame(nil, f)
		if err != nil {
			return err
		}
		if _, err := bw.Write(wire); err != nil {
			return err
		}
		// Flush only when no further request is already buffered or
		// stashed, so a batched submit gets one response write instead of
		// one per call.
		if br.Buffered() == 0 && len(stash) == 0 {
			return bw.Flush()
		}
		return nil
	}
	// sockDown builds the downcall route for one dispatching FrameCall: the
	// request crosses back to the kernel as a FrameDown carrying the
	// in-flight call's ID, and the handler blocks until the matching
	// FrameDownResult arrives, stashing any interleaved chunk frames.
	sockDown := func(callID uint64) func(name string, arg uint64) (uint64, error) {
		return func(name string, arg uint64) (uint64, error) {
			wire, werr := xdr.AppendFrame(nil, xdr.Frame{Kind: xdr.FrameDown, ID: callID, Name: name, Aux: arg})
			if werr != nil {
				return 0, werr
			}
			if _, werr = bw.Write(wire); werr != nil {
				return 0, werr
			}
			if werr = bw.Flush(); werr != nil {
				return 0, werr
			}
			for {
				g, _, rerr := readWireFrame(br)
				if rerr != nil {
					return 0, rerr
				}
				if g.Kind == xdr.FrameDownResult && g.ID == callID {
					if g.Status != 0 {
						return 0, fmt.Errorf("%s", g.Name)
					}
					return g.Aux, nil
				}
				stash = append(stash, g)
			}
		}
	}
	for {
		var f xdr.Frame
		var err error
		if len(stash) > 0 {
			f = stash[0]
			stash = stash[1:]
		} else {
			f, _, err = readWireFrame(br)
			if err == io.EOF {
				return workerOKExit
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "xpc worker: read:", err)
				return workerErrExit
			}
		}
		switch f.Kind {
		case xdr.FrameShutdown:
			_ = bw.Flush()
			return workerOKExit
		case xdr.FramePing:
			err = reply(xdr.Frame{Kind: xdr.FramePong, ID: f.ID})
		case xdr.FrameRingRegister:
			slots, slotSize := uint32(f.Aux>>32), uint32(f.Aux)
			status := wireStatusOK
			if slots > 0 && slotSize > 0 &&
				int64(slots)*int64(slotSize) <= int64(len(mem)-descArea-traceArea-stateArea) {
				geom.Store(f.Aux)
			} else {
				status = wireStatusBadSlot
			}
			err = reply(xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: status})
		case xdr.FrameTraceRing:
			entries, nrings := int(f.Aux>>32), int(uint32(f.Aux))
			status := wireStatusOK
			switch {
			case traceArea != 0 || descArea != 0:
				// Trace rings are carved once per worker process and must
				// precede the lane carve (the lanes sit in front of them).
				status = wireStatusBadFrame
			case nrings < 2 || nrings > MaxProcLanes+2 ||
				entries < 2 || entries&(entries-1) != 0 || entries > MaxTraceEntries ||
				trace.RegionBytes(nrings, entries) > len(mem):
				status = wireStatusBadSlot
			default:
				need := trace.RegionBytes(nrings, entries)
				rings, terr := trace.CarveRings(mem[len(mem)-need:], nrings, entries)
				if terr != nil {
					fmt.Fprintln(os.Stderr, "xpc worker: trace rings:", terr)
					status = wireStatusBadSlot
					break
				}
				traceArea = need
				// The last ring is this process's: the service loop appends
				// its dequeue/complete/park records into it, resuming at
				// whatever position a predecessor epoch left.
				wring = rings[nrings-1]
			}
			err = reply(xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: status})
		case xdr.FrameRingRelease:
			geom.Store(0)
			err = reply(xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID})
		case xdr.FrameDescRing:
			entries, slotSize := int(f.Aux>>32), int(uint32(f.Aux))
			laneCount := int(f.Lane)
			status := wireStatusOK
			switch {
			case descArea != 0:
				// The lanes are carved once per worker process; a second
				// geometry while the server goroutine runs is a protocol bug.
				status = wireStatusBadFrame
			case laneCount < 2 || laneCount > MaxProcLanes+1 ||
				entries < 1 || entries > 1<<20 || slotSize < 8 || slotSize > 1<<20 ||
				laneRegionBytes(laneCount, entries, slotSize) > len(mem)-traceArea:
				status = wireStatusBadSlot
			default:
				// The lanes sit immediately in front of the trace-ring area
				// (when one was published), mirroring the parent's carve.
				need := laneRegionBytes(laneCount, entries, slotSize)
				dir, rings, serr := carveLanes(mem[len(mem)-traceArea-need:len(mem)-traceArea], laneCount, entries, slotSize)
				if serr != nil {
					fmt.Fprintln(os.Stderr, "xpc worker: desc lanes:", serr)
					status = wireStatusBadSlot
					break
				}
				bells := make([]*fdDoorbell, laneCount)
				for i := range bells {
					lf := os.NewFile(uintptr(workerLaneBellFD+i), "xpc-worker-lane-bell")
					if lf == nil {
						status = wireStatusBadSlot
						break
					}
					bells[i] = &fdDoorbell{f: lf}
				}
				if status == wireStatusOK {
					descArea = need
					go serveLanes(dir, rings, bells, mem, &geom, &fdDoorbell{f: bell}, wring, wstate)
				}
			}
			err = reply(xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: status})
		case xdr.FrameStateMap:
			off, ln := int(f.Aux>>32), int(uint32(f.Aux))
			status := wireStatusOK
			switch {
			case descArea != 0 || stateArea != 0:
				// The state window binds once per worker process, before the
				// lane carve: the lane server captures the binding at spawn.
				status = wireStatusBadFrame
			case off < 0 || ln < 0 || off+ln > len(mem) || off%8 != 0:
				status = wireStatusBadSlot
			default:
				st, serr := registry.BindState(mem[off : off+ln])
				if serr != nil {
					fmt.Fprintln(os.Stderr, "xpc worker: state map:", serr)
					status = wireStatusBadSlot
				} else {
					wstate = st
					stateArea = ln
				}
			}
			err = reply(xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: status})
		case xdr.FrameSubmit:
			err = reply(submitAck(f, mem, &geom))
		case xdr.FrameCall:
			err = reply(callAck(f, registry.Lookup(f.Name), mem, &geom, wstate, &sockCtx, &sockSkip, sockDown(f.ID)))
		default:
			fmt.Fprintf(os.Stderr, "xpc worker: unexpected %v frame\n", f.Kind)
			return workerErrExit
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpc worker: reply:", err)
			return workerErrExit
		}
	}
}

// submitAck services one submit frame against this address space: resolve a
// slot descriptor through the registered payload-ring geometry (geom packs
// slots<<32 | slotSize; zero means no ring) and checksum the payload bytes
// the worker can actually see — the proof the mapping is shared. The ack
// echoes the submit's lane so the kernel side can demux completions per
// lane. Both the socketpair fallback and the lane server go through it.
//
//decaf:hotpath
func submitAck(f xdr.Frame, mem []byte, geom *atomic.Uint64) xdr.Frame {
	ack := xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Lane: f.Lane}
	switch {
	case f.Slot.Valid():
		g := geom.Load()
		if g == 0 {
			ack.Status = wireStatusNoRing
			break
		}
		slots, slotSize := uint32(g>>32), uint32(g)
		off := int64(f.Slot.Index) * int64(slotSize)
		end := off + int64(f.Slot.Length)
		if f.Slot.Index >= slots || f.Slot.Length > slotSize || end > int64(len(mem)) {
			ack.Status = wireStatusBadSlot
			break
		}
		// The payload never crossed the wire: read it out of the shared
		// mapping, exactly as a real decaf driver would.
		ack.Aux = payloadSum(mem[off:end])
	case len(f.Data) > 0:
		ack.Aux = payloadSum(f.Data)
	}
	return ack
}

// callAck services one handler-table dispatch in this address space: the
// worker IS the decaf driver process, and the registered body runs here,
// against the payload bytes resolved through the worker's own mapping and
// the shared state cells both processes see. The checksum is computed
// before dispatch (and for every outcome), so the parent's payload proof is
// independent of how the body fared. A panic is contained and reported as a
// fault status — the parent makes the containment physical by killing this
// process. A failing or faulting body arms *skip with the frame's Aux (the
// count of handler frames left in its chunk), and armed skips consume
// subsequent FrameCall frames unexecuted — mirroring the kernel side's
// chunk abort. h is the handler the frame names, resolved by the caller
// (the lane path holds the name as borrowed bytes, the socketpair path as a
// string). ctx is the serve loop's one dispatch context, re-armed for each
// body: a loop runs one body at a time and handlers may not keep their Ctx,
// so no call needs its own. down routes the body's nested downcalls; nil
// when the path cannot serve them (lanes carry only downcall-free handlers).
//
//decaf:hotpath
func callAck(f xdr.Frame, h *registry.Handler, mem []byte, geom *atomic.Uint64, st *registry.State, ctx *registry.Ctx, skip *int, down func(name string, arg uint64) (uint64, error)) xdr.Frame {
	ack := xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Lane: f.Lane}
	var data []byte
	switch {
	case f.Slot.Valid():
		g := geom.Load()
		if g == 0 {
			ack.Status = wireStatusNoRing
			return ack
		}
		slots, slotSize := uint32(g>>32), uint32(g)
		off := int64(f.Slot.Index) * int64(slotSize)
		end := off + int64(f.Slot.Length)
		if f.Slot.Index >= slots || f.Slot.Length > slotSize || end > int64(len(mem)) {
			ack.Status = wireStatusBadSlot
			return ack
		}
		data = mem[off:end]
		ack.Aux = payloadSum(data)
	case len(f.Data) > 0:
		data = f.Data
		ack.Aux = payloadSum(f.Data)
	}
	if *skip > 0 {
		*skip--
		ack.Status = remoteCallSkipped
		return ack
	}
	if f.Inject {
		// The kernel side armed fault injection for this call: report the
		// injected fault without executing the body.
		ack.Status = remoteCallInjected
		return ack
	}
	if h == nil {
		// The parent resolved this handler before encoding and the worker is
		// a re-exec of the same binary: a miss is a protocol violation. The
		// parent's error names the call.
		ack.Status = wireStatusBadFrame
		ack.Name = "no handler registered"
		return ack
	}
	if !h.Down {
		down = nil
	}
	if err := runRegisteredHandler(h, ctx.Arm(h, data, st, down)); err != nil {
		if int(f.Aux) > *skip {
			*skip = int(f.Aux)
		}
		if pe, ok := err.(*workerPanicError); ok {
			ack.Status = remoteCallFault
			ack.Name = clipFrameName(pe.text)
		} else {
			ack.Status = remoteCallFailed
			ack.Name = clipFrameName(err.Error())
		}
	}
	return ack
}

// workerPanicError marks a contained handler panic, distinguishing a fault
// from an ordinary error return on the wire.
type workerPanicError struct{ text string }

func (e *workerPanicError) Error() string { return e.text }

// runRegisteredHandler executes one handler body under the worker's fault
// containment: a panic becomes a *workerPanicError instead of killing the
// dispatch loop mid-protocol, so the fault travels the wire before the
// parent kills the process.
func runRegisteredHandler(h *registry.Handler, ctx *registry.Ctx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &workerPanicError{text: fmt.Sprint(p)}
		}
	}()
	return h.Fn(ctx)
}

// clipFrameName bounds error and panic text to what a frame's name field
// can carry.
func clipFrameName(s string) string {
	if len(s) > xdr.MaxFrameName {
		return s[:xdr.MaxFrameName]
	}
	return s
}

// laneServeQuantum bounds how many descriptors one lane may consume per
// sweep visit, so a firehose lane cannot starve its siblings.
const laneServeQuantum = 64

// serveLanes is the worker's steady-state loop, one goroutine per worker
// process: a fair round-robin sweep over every submission lane, serving up
// to a quantum per lane per visit. An idle worker parks on the worker-wide
// flag (descring.go invariant 5): declare parked, re-sweep EVERY lane, and
// block on the submit doorbell only if all were empty — so a publication on
// any lane either sees the flag and rings, or lands before the re-sweep.
// It exits the process on a doorbell error — the parent closed its end or
// died — or on a corrupt descriptor, which has no recoverable framing.
//
//decaf:hotpath
func serveLanes(dir *laneDir, lanes []laneRings, bells []*fdDoorbell, mem []byte, geom *atomic.Uint64, subBell *fdDoorbell, wring *trace.Ring, st *registry.State) {
	next := 0
	spins := 0
	// skips holds each lane's chunk-abort counter: chunks are per-lane, so
	// a failing handler skips only the remainder of its own lane's chunk.
	//decaf:allowalloc one-time setup before the serve loop, not per-crossing
	skips := make([]int, len(lanes))
	// ctx is the one dispatch context every lane-borne body runs under.
	var ctx registry.Ctx
	for {
		served := false
		for i := range lanes {
			l := next + i
			if l >= len(lanes) {
				l -= len(lanes)
			}
			if serveLane(lanes[l], bells[l], uint16(l), mem, geom, wring, st, &ctx, &skips[l]) > 0 {
				served = true
			}
		}
		// Rotate the sweep origin so no lane is structurally first.
		next++
		if next == len(lanes) {
			next = 0
		}
		if served {
			spins = 0
			continue
		}
		spins++
		if spins < descSpinBudget {
			if spins%64 == 63 {
				runtime.Gosched()
			}
			continue
		}
		dir.parked.Store(1)
		again := false
		for i := range lanes {
			if lanes[i].sub.pending() != nil {
				again = true
				break
			}
		}
		if again {
			dir.parked.Store(0)
			spins = 0
			continue
		}
		if wring != nil {
			wring.Emit(trace.KindWorkerPark, trace.LaneNone, trace.SrcWorker, 0, 0)
		}
		if err := subBell.wait(time.Time{}); err != nil {
			os.Exit(workerOKExit)
		}
		if wring != nil {
			wring.Emit(trace.KindWorkerWake, trace.LaneNone, trace.SrcWorker, 0, 0)
		}
		dir.parked.Store(0)
		spins = 0
	}
}

// serveLane drains up to one quantum of submit descriptors from a lane,
// publishing each acknowledgement into the lane's completion ring and
// ringing the lane's doorbell only when its consumer parked. The frame is
// decoded in place — its name and copy-path payload are views of the submit
// slot — so the slot stays ours until the handler has run, and is advanced
// after that but BEFORE the completion publishes: the kernel side assumes a
// fully acknowledged chunk has left the submit ring, so the next full-batch
// chunk on the lane always finds room (laneCrossOn treats a full submit ring
// as corruption). The acknowledgement holds no view of the slot.
//
//decaf:hotpath
func serveLane(lr laneRings, bell *fdDoorbell, laneIdx uint16, mem []byte, geom *atomic.Uint64, wring *trace.Ring, st *registry.State, ctx *registry.Ctx, skip *int) int {
	n := 0
	firstID := uint64(0)
	for ; n < laneServeQuantum; n++ {
		slot := lr.sub.pending()
		if slot == nil {
			break
		}
		f, name, _, derr := xdr.DecodeFrameView(slot)
		if derr != nil {
			fmt.Fprintln(os.Stderr, "xpc worker: corrupt submit descriptor:", derr)
			os.Exit(workerErrExit)
		}
		if n == 0 {
			firstID = f.ID
			if wring != nil {
				// The visit's dequeue mark: paired with KindWorkerComplete
				// below, this is the worker-side half of the cross-boundary
				// span the exporter draws per submission chunk.
				wring.Emit(trace.KindWorkerDequeue, laneIdx, trace.SrcWorker, firstID, 0)
			}
		}
		var ack xdr.Frame
		switch f.Kind {
		case xdr.FrameSubmit:
			ack = submitAck(f, mem, geom)
		case xdr.FrameCall:
			// Lane-borne handler dispatch. The down route is nil by
			// invariant: ringFits steers downcall-capable handlers onto the
			// socketpair.
			ack = callAck(f, registry.LookupBytes(name), mem, geom, st, ctx, skip, nil)
		default:
			ack = xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: wireStatusBadFrame, Name: f.Kind.String(), Lane: f.Lane}
		}
		lr.sub.advance()
		out := lr.cmp.reserve()
		for out == nil {
			// Cannot persist: the lane's claimant drains completions of the
			// chunk it is awaiting, and a chunk never exceeds the ring.
			runtime.Gosched()
			out = lr.cmp.reserve()
		}
		if _, aerr := xdr.AppendFrame(out[:0], ack); aerr != nil {
			fmt.Fprintln(os.Stderr, "xpc worker: encode completion:", aerr)
			os.Exit(workerErrExit)
		}
		lr.cmp.publish()
		if lr.cmp.consumerParked() {
			if err := bell.ring(); err != nil {
				os.Exit(workerOKExit)
			}
		}
	}
	if n > 0 && wring != nil {
		wring.Emit(trace.KindWorkerComplete, laneIdx, trace.SrcWorker, firstID, uint64(n))
	}
	return n
}

// payloadSum is the checksum both sides compute over a crossing's payload:
// the kernel side over the bytes it staged, the worker over the bytes
// visible in its own address space. Equality is the wire-level proof that
// payload transfer (shared mapping or copied frame) actually delivered the
// bytes. It is XXH64 with seed 0 — four independent multiply-rotate lanes
// over little-endian words, the length folded in, a final avalanche — so a
// 1462 B frame costs tens of nanoseconds on each side and the proof can stay
// on every crossing. Not hash/crc32: the Castagnoli table it needs costs a
// fresh worker ~160 µs to build, a tenth of a respawn; this needs no table
// and no init. Both processes must agree on it (a golden value is pinned in
// the tests).
//
//decaf:hotpath
func payloadSum(b []byte) uint64 {
	const (
		p1 = 0x9E3779B185EBCA87
		p2 = 0xC2B2AE3D27D4EB4F
		p3 = 0x165667B19E3779F9
		p4 = 0x85EBCA77C2B2AE63
		p5 = 0x27D4EB2F165667C5
	)
	n := uint64(len(b))
	h := uint64(p5)
	if len(b) >= 32 {
		// p1+p2 and -p1 wrap mod 2^64; variables, so the compiler does not
		// reject the constant expressions as overflowing.
		v1, v2, v3, v4 := uint64(p1), uint64(p2), uint64(0), uint64(p1)
		v1, v4 = v1+p2, -v4
		for ; len(b) >= 32; b = b[32:] {
			v1 = bits.RotateLeft64(v1+binary.LittleEndian.Uint64(b[0:8])*p2, 31) * p1
			v2 = bits.RotateLeft64(v2+binary.LittleEndian.Uint64(b[8:16])*p2, 31) * p1
			v3 = bits.RotateLeft64(v3+binary.LittleEndian.Uint64(b[16:24])*p2, 31) * p1
			v4 = bits.RotateLeft64(v4+binary.LittleEndian.Uint64(b[24:32])*p2, 31) * p1
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = (h^bits.RotateLeft64(v1*p2, 31)*p1)*p1 + p4
		h = (h^bits.RotateLeft64(v2*p2, 31)*p1)*p1 + p4
		h = (h^bits.RotateLeft64(v3*p2, 31)*p1)*p1 + p4
		h = (h^bits.RotateLeft64(v4*p2, 31)*p1)*p1 + p4
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^bits.RotateLeft64(binary.LittleEndian.Uint64(b)*p2, 31)*p1, 27)*p1 + p4
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b))*p1, 23)*p2 + p3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*p5, 11) * p1
	}
	h = (h ^ h>>33) * p2
	h = (h ^ h>>29) * p3
	return h ^ h>>32
}

// readWireFrame reads one length-prefixed frame from r, returning the frame
// and total bytes consumed.
func readWireFrame(r *bufio.Reader) (xdr.Frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return xdr.Frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > xdr.MaxFrameSize {
		return xdr.Frame{}, 0, fmt.Errorf("frame length %d exceeds max %d", n, xdr.MaxFrameSize)
	}
	buf := make([]byte, 4+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return xdr.Frame{}, 0, err
	}
	f, used, err := xdr.DecodeFrame(buf)
	if err != nil {
		return xdr.Frame{}, 0, err
	}
	return f, used, nil
}
