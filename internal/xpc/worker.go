//go:build unix

package xpc

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// runWorker is the decaf-side process: it maps the shared region, then
// serves the control protocol on the socketpair — the handshake that carves
// the trace rings, the state window and the submission lanes out of its own
// mapping, payload-ring registration, shutdown. No call ever crosses here:
// once FrameDescRing starts the lane server (serveLanes), every call body,
// its downcalls and its completion ride the lane rings, and a submit or call
// frame on the socket is a protocol violation like any other unexpected
// kind. It exits 0 on FrameShutdown or a clean EOF (the parent died or
// closed), non-zero on a protocol violation.
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
	// geom is the registered payload-ring geometry, packed exactly as the
	// FrameRingRegister Aux (slots<<32 | slotSize, zero = none). It is
	// atomic because this loop stores it and the lane server resolves slot
	// descriptors against it. descArea is the region tail the lane rings
	// own; payload geometries must fit in front of it (this loop only, plain
	// var). traceArea is the flight-recorder ring area behind even that
	// (FrameTraceRing, optional, always published before FrameDescRing);
	// wring is the worker's own trace ring — the last of the carved rings —
	// nil when tracing is off.
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
	var wire []byte
	for {
		f, _, err := readWireFrame(br)
		if err == io.EOF {
			return workerOKExit
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpc worker: read:", err)
			return workerErrExit
		}
		status := wireStatusOK
		switch f.Kind {
		case xdr.FrameShutdown:
			return workerOKExit
		case xdr.FrameRingRegister:
			slots, slotSize := uint32(f.Aux>>32), uint32(f.Aux)
			if slots > 0 && slotSize > 0 &&
				int64(slots)*int64(slotSize) <= int64(len(mem)-descArea-traceArea-stateArea) {
				geom.Store(f.Aux)
			} else {
				status = wireStatusBadSlot
			}
		case xdr.FrameTraceRing:
			entries, nrings := int(f.Aux>>32), int(uint32(f.Aux))
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
		case xdr.FrameRingRelease:
			geom.Store(0)
		case xdr.FrameDescRing:
			entries, slotSize := int(f.Aux>>32), int(uint32(f.Aux))
			laneCount := int(f.Lane)
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
				bells := make([]doorbell, laneCount)
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
					go newLaneServer(dir, rings, bells, slotSize, mem, &geom, &fdDoorbell{f: bell}, wring, wstate).serveLanes()
				}
			}
		case xdr.FrameStateMap:
			off, ln := int(f.Aux>>32), int(uint32(f.Aux))
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
		default:
			fmt.Fprintf(os.Stderr, "xpc worker: unexpected %v frame\n", f.Kind)
			return workerErrExit
		}
		// Every control frame but shutdown is acknowledged by ID.
		if wire, err = xdr.AppendFrame(wire[:0], xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Status: status}); err == nil {
			_, err = sock.Write(wire)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpc worker: reply:", err)
			return workerErrExit
		}
	}
}

// workerLane is the worker's end of one submission lane: the ring pair, the
// doorbell of the lane's completion ring, and skip, the lane's chunk-abort
// counter — chunks are per-lane, so a failing handler skips only the
// remainder of its own lane's chunk.
type workerLane struct {
	laneRings
	bell doorbell
	idx  uint16
	skip int
}

// laneServer is the worker's one serve loop and everything a call body is
// dispatched against. The worker executes strictly one body at a time, so
// one dispatch context, one payload scratch buffer and one downcall route
// serve every lane.
type laneServer struct {
	dir     *laneDir
	lanes   []workerLane
	subBell doorbell // the submit doorbell: wakes this loop when it parked
	mem     []byte
	geom    *atomic.Uint64
	wring   *trace.Ring
	st      *registry.State

	// ctx is the one dispatch context every body runs under, re-armed per
	// call (handlers may not keep their Ctx). scratch holds the inline
	// payload of a downcall-making body, whose submit slot is released
	// before it runs.
	ctx     registry.Ctx
	scratch []byte
	// down is the downcall method bound once, so arming it costs a call
	// nothing; cur and callID name the lane and the call it crosses for.
	down   func(name string, arg uint64) (uint64, error)
	cur    *workerLane
	callID uint64
}

// newLaneServer assembles the serve state over carved lanes: one-time
// set-up, the only allocations the lane path ever makes.
func newLaneServer(dir *laneDir, rings []laneRings, bells []doorbell, slotSize int, mem []byte, geom *atomic.Uint64, subBell doorbell, wring *trace.Ring, st *registry.State) *laneServer {
	s := &laneServer{dir: dir, lanes: make([]workerLane, len(rings)), subBell: subBell,
		mem: mem, geom: geom, wring: wring, st: st, scratch: make([]byte, slotSize)}
	for i := range rings {
		s.lanes[i] = workerLane{laneRings: rings[i], bell: bells[i], idx: uint16(i)}
	}
	s.down = s.downcall
	return s
}

// payload resolves the payload a submit or call frame carries, in this
// address space, and sums the bytes the worker can actually see — the
// completion's proof that the mapping is shared (zero when the frame carried
// no payload). A slot descriptor is resolved against the registered
// payload-ring geometry (geom packs slots<<32 | slotSize; zero means no ring)
// and bounds-checked, because the indices are peer-supplied; otherwise the
// payload is the frame's inline bytes.
//
//decaf:hotpath
func (s *laneServer) payload(slot xdr.SlotDescriptor, inline []byte) (data []byte, sum uint64, status uint32) {
	if !slot.Valid() {
		if len(inline) == 0 {
			return nil, 0, wireStatusOK
		}
		return inline, payloadSum(inline), wireStatusOK
	}
	g := s.geom.Load()
	if g == 0 {
		return nil, 0, wireStatusNoRing
	}
	slots, slotSize := uint32(g>>32), uint32(g)
	off := int64(slot.Index) * int64(slotSize)
	end := off + int64(slot.Length)
	if slot.Index >= slots || slot.Length > slotSize || end > int64(len(s.mem)) {
		return nil, 0, wireStatusBadSlot
	}
	// The payload never crossed the wire: read it out of the shared mapping,
	// exactly as a real decaf driver would.
	return s.mem[off:end], payloadSum(s.mem[off:end]), wireStatusOK
}

// callAck services one handler-table dispatch in this address space and
// fills in its completion: the worker IS the decaf driver process, and h — the
// handler the frame names — runs here, against the resolved payload and the
// shared state cells both processes see. The sum is computed before dispatch
// (and for every outcome), so the parent's payload proof is independent of
// how the body fared. A panic is contained and reported as a fault status —
// the parent makes the containment physical by killing this process. A
// failing or faulting body arms l.skip with the frame's Aux (the count of
// handler frames left in its chunk), and armed skips consume subsequent
// FrameCall frames unexecuted — mirroring the kernel side's chunk abort.
//
//decaf:hotpath
func (s *laneServer) callAck(l *workerLane, f *xdr.Frame, h *registry.Handler, ack *xdr.Frame) {
	var data []byte
	data, ack.Aux, ack.Status = s.payload(f.Slot, f.Data)
	if ack.Status != wireStatusOK {
		return
	}
	if l.skip > 0 {
		l.skip--
		ack.Status = remoteCallSkipped
		return
	}
	if f.Inject {
		// The kernel side armed fault injection for this call: report the
		// injected fault without executing the body.
		ack.Status = remoteCallInjected
		return
	}
	if h == nil {
		// The parent resolved this handler before encoding and the worker is
		// a re-exec of the same binary: a miss is a protocol violation. The
		// parent's error names the call.
		ack.Status = wireStatusBadFrame
		ack.Name = "no handler registered"
		return
	}
	down := s.down
	if !h.Down {
		down = nil
	}
	s.cur, s.callID = l, f.ID
	if err := runRegisteredHandler(h, s.ctx.Arm(h, data, s.st, down)); err != nil {
		if int(f.Aux) > l.skip {
			l.skip = int(f.Aux)
		}
		if pe, ok := err.(*workerPanicError); ok {
			ack.Status = remoteCallFault
			ack.Name = clipFrameName(pe.text)
		} else {
			ack.Status = remoteCallFailed
			ack.Name = clipFrameName(err.Error())
		}
	}
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

// downcall is the route of every worker-side Ctx.Downcall: the request rides
// the completion ring of the lane the executing call was claimed on — whose
// holder is already waiting there for the call's completion, serves the
// registered kernel-side target instead and answers on the lane's submit
// ring. The holder publishes nothing behind a downcall-making call until
// that call's completion is consumed, and serveLane released the call's own
// slot before dispatching it, so the next submit entry this body can see IS
// its result: no third ring, no mailbox, no peek-ahead. While the body waits
// the worker serves nobody else — one body at a time — so the wait parks on
// the worker-wide flag like the idle loop does (descring.go invariant 5);
// publications on other lanes wake it early, which only costs a re-check.
func (s *laneServer) downcall(name string, arg uint64) (uint64, error) {
	l := s.cur
	if len(name) > xdr.MaxFrameName {
		return 0, fmt.Errorf("xpc: downcall name of %dB exceeds the frame limit", len(name))
	}
	s.publish(l, &xdr.Frame{Kind: xdr.FrameDown, ID: s.callID, Name: name, Aux: arg, Lane: uint32(l.idx)})
	for spins := 0; ; spins++ {
		slot := l.sub.pending()
		if slot == nil {
			if spins < descSpinBudget {
				if spins%64 == 63 {
					runtime.Gosched()
				}
				continue
			}
			s.dir.parked.Store(1)
			if l.sub.pending() == nil {
				if err := s.subBell.wait(time.Time{}); err != nil {
					os.Exit(workerOKExit)
				}
			}
			s.dir.parked.Store(0)
			spins = 0
			continue
		}
		f, msg, _, err := xdr.DecodeFrameView(slot)
		if err != nil || f.Kind != xdr.FrameDownResult || f.ID != s.callID {
			fmt.Fprintf(os.Stderr, "xpc worker: lane %d: want the result of downcall %d, got %v id %d (%v)\n", l.idx, s.callID, f.Kind, f.ID, err)
			os.Exit(workerErrExit)
		}
		if f.Status != 0 {
			err = errors.New(string(msg))
		}
		l.sub.advance()
		return f.Aux, err
	}
}

// publish encodes one frame into the lane's completion ring and rings the
// lane's doorbell only when its consumer parked.
//
//decaf:hotpath
func (s *laneServer) publish(l *workerLane, f *xdr.Frame) {
	out := l.cmp.reserve()
	for out == nil {
		// Cannot persist: the lane's claimant drains the completions and
		// downcalls of the chunk it is awaiting, and a chunk never exceeds
		// the ring.
		runtime.Gosched()
		out = l.cmp.reserve()
	}
	if _, err := xdr.AppendFrame(out[:0], *f); err != nil {
		fmt.Fprintln(os.Stderr, "xpc worker: encode", f.Kind, "frame:", err)
		os.Exit(workerErrExit)
	}
	l.cmp.publish()
	if l.cmp.consumerParked() {
		if err := l.bell.ring(); err != nil {
			os.Exit(workerOKExit)
		}
	}
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
func (s *laneServer) serveLanes() {
	next := 0
	spins := 0
	for {
		served := false
		for i := range s.lanes {
			l := next + i
			if l >= len(s.lanes) {
				l -= len(s.lanes)
			}
			if s.serveLane(&s.lanes[l]) > 0 {
				served = true
			}
		}
		// Rotate the sweep origin so no lane is structurally first.
		next++
		if next == len(s.lanes) {
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
		s.dir.parked.Store(1)
		again := false
		for i := range s.lanes {
			if s.lanes[i].sub.pending() != nil {
				again = true
				break
			}
		}
		if again {
			s.dir.parked.Store(0)
			spins = 0
			continue
		}
		if s.wring != nil {
			s.wring.Emit(trace.KindWorkerPark, trace.LaneNone, trace.SrcWorker, 0, 0)
		}
		if err := s.subBell.wait(time.Time{}); err != nil {
			os.Exit(workerOKExit)
		}
		if s.wring != nil {
			s.wring.Emit(trace.KindWorkerWake, trace.LaneNone, trace.SrcWorker, 0, 0)
		}
		s.dir.parked.Store(0)
		spins = 0
	}
}

// serveLane drains up to one quantum of submit descriptors from a lane,
// publishing each acknowledgement into the lane's completion ring. The frame
// is decoded in place — its name and copy-path payload are views of the
// submit slot — so the slot stays ours until the handler has run, and is
// advanced after that but BEFORE the completion publishes: the kernel side
// assumes a fully acknowledged chunk has left the submit ring, so the next
// full-batch chunk on the lane always finds room (laneConverse treats a full
// submit ring as corruption). The one exception is a body that may call
// down: it reads its downcall results off this same ring, so its inline
// payload moves to the loop's scratch buffer and its slot is released before
// it runs. The acknowledgement holds no view of the slot.
//
//decaf:hotpath
func (s *laneServer) serveLane(l *workerLane) int {
	n := 0
	firstID := uint64(0)
	for ; n < laneServeQuantum; n++ {
		slot := l.sub.pending()
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
			if s.wring != nil {
				// The visit's dequeue mark: paired with KindWorkerComplete
				// below, this is the worker-side half of the cross-boundary
				// span the exporter draws per submission chunk.
				s.wring.Emit(trace.KindWorkerDequeue, l.idx, trace.SrcWorker, firstID, 0)
			}
		}
		// Every completion echoes the lane, so the kernel side can demux.
		ack := xdr.Frame{Kind: xdr.FrameComplete, ID: f.ID, Lane: f.Lane}
		held := true
		switch f.Kind {
		case xdr.FrameSubmit:
			// A legacy closure call, whose body runs kernel-side: the
			// payload proof is the whole service.
			_, ack.Aux, ack.Status = s.payload(f.Slot, f.Data)
		case xdr.FrameCall:
			h := registry.LookupBytes(name)
			if h != nil && h.Down {
				f.Data = s.scratch[:copy(s.scratch, f.Data)]
				l.sub.advance()
				held = false
			}
			s.callAck(l, &f, h, &ack)
		default:
			ack.Status, ack.Name = wireStatusBadFrame, f.Kind.String()
		}
		if held {
			l.sub.advance()
		}
		s.publish(l, &ack)
	}
	if n > 0 && s.wring != nil {
		s.wring.Emit(trace.KindWorkerComplete, l.idx, trace.SrcWorker, firstID, uint64(n))
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
