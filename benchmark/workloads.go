package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	testbed "decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

const (
	// payloadBytes is a full Ethernet frame of netperf's TCP stream: 14 B
	// header + 1448 B payload.
	payloadBytes = 1462
	// batchN is the coalescing size of the proc transport and the op count
	// of one batched latency sample.
	batchN = 32
	// copiedBytes is what the runtime counts for one payload crossing by
	// copy: the bytes plus their XDR opaque length prefix.
	copiedBytes = payloadBytes + 4
	// poolSize distinct seeded payloads cycle through every workload, so no
	// checksum the two sides compare is a constant.
	poolSize = 64
)

// workloadNames lists the workloads in reporting order. The names are fixed:
// later issues cite them. All but watchdog_down are listed in BENCHMARK.json;
// README.md says why that one is run but not gated.
var workloadNames = []string{"xmit_n1", "xmit_n32", "rx_slot_n32", "e1000_netperf", "kill_respawn", "watchdog_down"}

// workload is one closed-loop load generator: a single submitter goroutine
// against a single worker process.
type workload interface {
	// setup builds the system under test from nothing and performs the
	// first successful op; its wall time is setup_s. A workload may be set
	// up again after close.
	setup() error
	// sample performs one latency sample's worth of ops beginning at start
	// (a clock reading the caller already took) and returns the clock
	// reading at completion, the ops attempted and the ops that failed.
	// Child spans go to tr, which is nil in an untraced run.
	sample(tr *tracer, start time.Time) (end time.Time, ops, failed int)
	// observe snapshots the counters the output checks compare.
	observe() observed
	// check compares two snapshots around a window against what the
	// workload issued in between and describes every mismatch.
	check(before, after observed) []string
	// shape describes the crossing this workload's op makes, for the
	// isolation passes.
	shape() chunkShape
	// base exposes the runtime and transport of the current set-up.
	base() *rig
	close()
}

// chunkShape is what one crossing of a workload looks like to the layers
// below the batch: how many calls it carries and how the payload travels.
type chunkShape struct {
	handler string // the registered body the op dispatches
	calls   int    // calls per crossing
	slots   bool   // payloads ride the mapped ring as slot descriptors
	lane    bool   // the op is a batch flushed over a submission lane
}

// tally is what a workload itself counted: the expectation side of the
// output checks.
type tally struct {
	served   uint64 // handler calls issued that returned success
	carrier  uint64 // netif_carrier_change firings (watchdog_down)
	sent     uint64 // frames Transmit accepted (e1000_netperf)
	injected uint64 // frames InjectRx accepted (e1000_netperf)
	sunk     uint64 // frames the RX sink received (e1000_netperf)
	cycles   uint64 // kill→served cycles completed (kill_respawn)
	stalePID uint64 // cycles that ended on the pid they killed (kill_respawn)
}

// observed is one snapshot of everything an output check reads.
type observed struct {
	c xpc.Counters
	// Runtime.Counters itself takes the control lock once, so the lock
	// count is read on both sides of it: a window's own acquisitions are
	// its closing ctlBefore minus its opening ctlAfter.
	ctlBefore, ctlAfter uint64
	tx, rx, wd          uint64 // e1000 state cells, read through Runtime.SharedState
	t                   tally
}

// The e1000 state cells, resolved by name: the indices are private to the
// driver package, the names are its public contract.
var cellTx, cellRx, cellWd = mustCell("e1000.decaf_tx_frames"), mustCell("e1000.decaf_rx_frames"), mustCell("e1000.watchdog_runs")

func mustCell(name string) registry.Cell {
	for i := 0; i < registry.CellCount(); i++ {
		if registry.CellName(registry.Cell(i)) == name {
			return registry.Cell(i)
		}
	}
	panic("benchmark: state cell " + name + " not registered (is internal/drivers/e1000 linked in?)")
}

// rig is what every workload has once set up: a runtime in decaf mode bound
// to a real worker process, and the submitter's context.
type rig struct {
	r   *xpc.Runtime
	pt  *xpc.ProcTransport
	ctx *kernel.Context
	t   tally
}

func (g *rig) base() *rig { return g }

func (g *rig) observe() observed {
	o := observed{ctlBefore: g.pt.ControlAcquires(), t: g.t}
	o.c = g.r.Counters()
	o.ctlAfter = g.pt.ControlAcquires()
	st := g.r.SharedState()
	o.tx, o.rx, o.wd = st.Load(cellTx), st.Load(cellRx), st.Load(cellWd)
	return o
}

// newRawRig builds the raw-crossing harness: a bare kernel and runtime with
// the virtual cost model zeroed (wall time is what is measured here) over a
// freshly forked worker.
func newRawRig() (rig, error) {
	clock := ktime.NewClock()
	k := kernel.New(clock, hw.NewBus(clock, 1<<20))
	r := xpc.NewRuntime(k, "benchmark", xpc.ModeDecaf, nil)
	r.Latency = xpc.ZeroLatencyModel
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{Batch: batchN})
	if err != nil {
		return rig{}, err
	}
	r.SetTransport(pt)
	return rig{r: r, pt: pt, ctx: k.NewContext("submitter")}, nil
}

func (g *rig) close() {
	if g.r != nil {
		g.r.SetTransport(nil)
	}
}

// firstOp completes a set-up: setup_s ends at the first successful op.
func firstOp(w workload) error {
	if _, _, failed := w.sample(nil, time.Time{}); failed > 0 {
		return errors.New("first op failed")
	}
	return nil
}

// expect appends a mismatch line when got != want.
func expect(out []string, what string, got, want uint64) []string {
	if got != want {
		out = append(out, fmt.Sprintf("%s = %d, want %d", what, got, want))
	}
	return out
}

// payloadPool holds the seeded payloads and deals them round-robin.
type payloadPool struct {
	bufs [][]byte
	next int
}

func newPayloadPool(rng *rand.Rand) payloadPool {
	p := payloadPool{bufs: make([][]byte, poolSize)}
	for i := range p.bufs {
		b := make([]byte, payloadBytes)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		p.bufs[i] = b
	}
	return p
}

func (p *payloadPool) take() []byte {
	b := p.bufs[p.next]
	p.next = (p.next + 1) % len(p.bufs)
	return b
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

func newWorkload(name string, seed uint64) (workload, error) {
	rng := newRNG(seed)
	switch name {
	case "xmit_n1":
		return &xmit{n: 1, pool: newPayloadPool(rng)}, nil
	case "xmit_n32":
		return &xmit{n: batchN, pool: newPayloadPool(rng)}, nil
	case "rx_slot_n32":
		return &rxSlot{pool: newPayloadPool(rng), ps: make([]xpc.Payload, batchN)}, nil
	case "watchdog_down":
		return &watchdogDown{}, nil
	case "e1000_netperf":
		return newNetperf(rng), nil
	case "kill_respawn":
		return &killRespawn{pool: newPayloadPool(rng)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// xmit is xmit_n1 / xmit_n32: n e1000_xmit_frame handler calls per flush,
// each carrying a 1462 B copy payload.
type xmit struct {
	rig
	n    int
	pool payloadPool
}

func (w *xmit) setup() (err error) {
	if w.rig, err = newRawRig(); err != nil {
		return err
	}
	return firstOp(w)
}

func (w *xmit) sample(tr *tracer, start time.Time) (time.Time, int, int) {
	b := w.r.Batch(w.ctx)
	for j := 0; j < w.n; j++ {
		b.UpcallHandlerData("e1000_xmit_frame", w.pool.take())
	}
	built := tr.now()
	err := b.Flush()
	end := time.Now()
	tr.child("xpc.batch.build", start, built)
	tr.child("xpc.batch.flush", built, end)
	if err != nil {
		return end, w.n, w.n
	}
	w.t.served += uint64(w.n)
	return end, w.n, 0
}

func (w *xmit) shape() chunkShape {
	return chunkShape{handler: "e1000_xmit_frame", calls: w.n, lane: true}
}

func (w *xmit) check(a, b observed) []string {
	n := b.t.served - a.t.served
	out := expect(nil, "WorkerServedCalls", b.c.WorkerServedCalls-a.c.WorkerServedCalls, n)
	out = expect(out, "e1000.decaf_tx_frames", b.tx-a.tx, n)
	out = expect(out, "BytesPayloadCopied", b.c.BytesPayloadCopied-a.c.BytesPayloadCopied, copiedBytes*n)
	return out
}

// rxSlot is rx_slot_n32: the same 32-call batch, with each payload staged
// into a registered mapped ring so only its slot descriptor crosses.
type rxSlot struct {
	rig
	pool payloadPool
	ps   []xpc.Payload
}

func (w *rxSlot) setup() (err error) {
	if w.rig, err = newRawRig(); err != nil {
		return err
	}
	ring, err := w.r.NewRing(0, 0)
	if err != nil {
		return err
	}
	if err := w.r.RegisterPayloadRing(w.ctx, ring); err != nil {
		return err
	}
	return firstOp(w)
}

func (w *rxSlot) sample(tr *tracer, start time.Time) (time.Time, int, int) {
	n := len(w.ps)
	for j := range w.ps {
		w.ps[j] = w.r.AcquirePayload(w.pool.take())
	}
	staged := tr.now()
	b := w.r.Batch(w.ctx)
	for _, p := range w.ps {
		b.UpcallHandlerPayload("e1000_rx_frame", p)
	}
	built := tr.now()
	err := b.Flush()
	flushed := tr.now()
	w.r.ReleasePayloads(w.ps)
	end := time.Now()
	tr.child("xpc.ring.acquire", start, staged)
	tr.child("xpc.batch.build", staged, built)
	tr.child("xpc.batch.flush", built, flushed)
	tr.child("xpc.ring.release", flushed, end)
	if err != nil {
		return end, n, n
	}
	w.t.served += uint64(n)
	return end, n, 0
}

func (w *rxSlot) shape() chunkShape {
	return chunkShape{handler: "e1000_rx_frame", calls: batchN, slots: true, lane: true}
}

func (w *rxSlot) check(a, b observed) []string {
	n := b.t.served - a.t.served
	out := expect(nil, "WorkerServedCalls", b.c.WorkerServedCalls-a.c.WorkerServedCalls, n)
	out = expect(out, "e1000.decaf_rx_frames", b.rx-a.rx, n)
	out = expect(out, "BytesPayloadCopied", b.c.BytesPayloadCopied-a.c.BytesPayloadCopied, 0)
	out = expect(out, "BytesPayloadDirect", b.c.BytesPayloadDirect-a.c.BytesPayloadDirect, payloadBytes*n)
	out = expect(out, "RingExhausted", b.c.RingExhausted-a.c.RingExhausted, 0)
	return out
}

// watchdogDown is watchdog_down: one e1000_watchdog call whose body makes
// two nested downcalls back into this process over the socketpair.
type watchdogDown struct {
	rig
	status uint64
}

func (w *watchdogDown) setup() (err error) {
	if w.rig, err = newRawRig(); err != nil {
		return err
	}
	// The handler reports a carrier change only when the link bit differs
	// from the state cell, so the status register flips on every read:
	// each op then makes exactly two downcalls.
	w.status = 0
	w.r.RegisterDowncall("e1000_read_status", func(*kernel.Context, uint64) (uint64, error) {
		w.status ^= e1000hw.StatusLU
		return w.status, nil
	})
	w.r.RegisterDowncall("netif_carrier_change", func(*kernel.Context, uint64) (uint64, error) {
		w.t.carrier++
		return 0, nil
	})
	return firstOp(w)
}

func (w *watchdogDown) sample(tr *tracer, start time.Time) (time.Time, int, int) {
	b := w.r.Batch(w.ctx).UpcallHandler("e1000_watchdog")
	built := tr.now()
	err := b.Flush()
	end := time.Now()
	tr.child("xpc.batch.build", start, built)
	tr.child("xpc.batch.flush", built, end)
	if err != nil {
		return end, 1, 1
	}
	w.t.served++
	return end, 1, 0
}

func (w *watchdogDown) shape() chunkShape { return chunkShape{handler: "e1000_watchdog", calls: 1} }

func (w *watchdogDown) check(a, b observed) []string {
	n := b.t.served - a.t.served
	out := expect(nil, "WorkerServedCalls", b.c.WorkerServedCalls-a.c.WorkerServedCalls, n)
	out = expect(out, "e1000.watchdog_runs", b.wd-a.wd, n)
	out = expect(out, "WorkerDowncalls", b.c.WorkerDowncalls-a.c.WorkerDowncalls, 2*n)
	out = expect(out, "carrier-change firings", b.t.carrier-a.t.carrier, n)
	return out
}

// netperf is e1000_netperf: packets through the real decaf e1000 driver on
// the simulated machine, TX and RX interleaved in seeded runs.
type netperf struct {
	rig
	tb     *testbed.Testbed
	nd     *knet.NetDevice
	dirs   []bool // true = transmit, per half-burst; the seeded interleaving, cycled
	pos    int    // next half-burst
	pkt    int    // next packet of the pools
	rng    *rand.Rand
	txPkts []*knet.Packet
	rxPkts []*knet.Packet
	wire   time.Duration
	probe  time.Duration // wall time of NewE1000With in the last setup
}

// halfBurst is the unit the interleaving is dealt in: the testbed's e1000
// raises its receive interrupt once per 16 frames (SetIntrBatch), so only
// after a multiple of 16 injected frames has every one of them reached the
// driver — which the output checks need at every window boundary.
const halfBurst = batchN / 2

func newNetperf(rng *rand.Rand) *netperf {
	// A sample is two half-bursts: TX-TX, TX-RX, RX-TX or RX-RX. The seed
	// shuffles an equal number of each, so every seed offers the same mix
	// in a different order.
	kinds := make([][2]bool, 256)
	for i := range kinds {
		kinds[i] = [2]bool{i&1 == 0, i&2 == 0}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	w := &netperf{rng: rng}
	for _, k := range kinds {
		w.dirs = append(w.dirs, k[0], k[1])
	}
	return w
}

func (w *netperf) setup() error {
	t0 := time.Now()
	tb, err := testbed.NewE1000With(xpc.ModeDecaf, testbed.NetOptions{
		DataPath: xpc.DataPathDecaf, BatchN: batchN, Proc: true, ZeroCopy: true,
	})
	if err != nil {
		return err
	}
	w.probe = time.Since(t0)
	pt, ok := tb.Runtime.Transport().(*xpc.ProcTransport)
	if !ok {
		tb.Shutdown()
		return fmt.Errorf("testbed transport is %T, want *xpc.ProcTransport", tb.Runtime.Transport())
	}
	w.tb, w.nd = tb, tb.E1000.NetDevice()
	w.rig = rig{r: tb.Runtime, pt: pt, ctx: tb.Kernel.NewContext("netperf")}
	w.nd.SetRxSink(func(*knet.Packet) { w.t.sunk++ })
	if w.txPkts == nil {
		peer := [6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
		w.txPkts, w.rxPkts = make([]*knet.Packet, poolSize), make([]*knet.Packet, poolSize)
		for i := range w.txPkts {
			w.txPkts[i] = w.seededPacket(peer, w.nd.MAC)
			w.rxPkts[i] = w.seededPacket(w.nd.MAC, peer)
		}
		// Pace the virtual clock at gigabit wire rate, as netperf does.
		w.wire = time.Duration(w.txPkts[0].Len()*8) * time.Nanosecond
	}
	w.pos, w.pkt = 0, 0
	return firstOp(w)
}

func (w *netperf) seededPacket(dst, src [6]byte) *knet.Packet {
	p := knet.NewPacket(dst, src, 0x0800, payloadBytes-knet.EthHeaderLen)
	for i := knet.EthHeaderLen; i < len(p.Data); i++ {
		p.Data[i] = byte(w.rng.Uint32())
	}
	return p
}

func (w *netperf) sample(tr *tracer, start time.Time) (time.Time, int, int) {
	failed := 0
	at := start
	for i := 0; i < batchN; i++ {
		tx := w.dirs[(w.pos+i/halfBurst)%len(w.dirs)]
		w.pkt = (w.pkt + 1) % poolSize
		layer := "drivers.e1000.rx_inject"
		if tx {
			layer = "drivers.e1000.transmit"
			if err := w.nd.Transmit(w.ctx, w.txPkts[w.pkt]); err != nil {
				failed++
			} else {
				w.t.sent++
			}
		} else if w.tb.E1000Dev.InjectRx(w.rxPkts[w.pkt].Data) {
			w.t.injected++
		} else {
			failed++
		}
		done := tr.now()
		tr.child(layer, at, done)
		w.tb.Clock.Advance(w.wire)
		advanced := tr.now()
		w.tb.Sys.DrainDeferredWork()
		at = tr.now()
		tr.child("kernel.drain_deferred", advanced, at)
	}
	w.pos = (w.pos + batchN/halfBurst) % len(w.dirs)
	w.tb.Settle(w.ctx)
	end := time.Now()
	tr.child("workload.settle", at, end)
	return end, batchN, failed
}

func (w *netperf) shape() chunkShape {
	return chunkShape{handler: "e1000_xmit_frame", calls: batchN, slots: true}
}

func (w *netperf) check(a, b observed) []string {
	sent, injected := b.t.sent-a.t.sent, b.t.injected-a.t.injected
	out := expect(nil, "e1000.decaf_tx_frames", b.tx-a.tx, sent)
	out = expect(out, "e1000.decaf_rx_frames", b.rx-a.rx, injected)
	out = expect(out, "RX-sink frames", b.t.sunk-a.t.sunk, injected)
	// The driver's own two-second watchdog also crosses while virtual time
	// advances; every call the worker served is one of the three kinds.
	out = expect(out, "WorkerServedCalls", b.c.WorkerServedCalls-a.c.WorkerServedCalls, sent+injected+(b.wd-a.wd))
	return out
}

func (w *netperf) close() {
	if w.tb != nil {
		w.tb.Shutdown()
		w.tb = nil
	}
}

// killRespawn is kill_respawn: SIGKILL the worker, then cross until a call
// is served by its replacement.
type killRespawn struct {
	rig
	pool payloadPool
}

// maxRecoveryCalls bounds the crossings one cycle may spend before it counts
// as failed: one to observe the death, one served by the new worker, and
// slack.
const maxRecoveryCalls = 8

func (w *killRespawn) setup() (err error) {
	if w.rig, err = newRawRig(); err != nil {
		return err
	}
	return w.call()
}

func (w *killRespawn) call() error {
	return w.r.Batch(w.ctx).UpcallHandlerData("e1000_xmit_frame", w.pool.take()).Flush()
}

func (w *killRespawn) sample(tr *tracer, start time.Time) (time.Time, int, int) {
	old := w.pt.WorkerPID()
	killed := w.pt.KillWorker()
	dead := tr.now()
	tr.child("xpc.worker.kill", start, dead)
	var fault time.Time
	served := false
	for i := 0; i < maxRecoveryCalls && killed; i++ {
		err := w.call()
		if err == nil {
			served = true
			break
		}
		if !xpc.IsUserFault(err) {
			break
		}
		if fault.IsZero() {
			fault = tr.now()
			tr.child("xpc.worker.detect", dead, fault)
			dead = fault
		}
	}
	end := time.Now()
	tr.child("xpc.worker.respawn", dead, end)
	if !served {
		return end, 1, 1
	}
	w.t.served++
	w.t.cycles++
	if pid := w.pt.WorkerPID(); pid == 0 || pid == old {
		w.t.stalePID++
	}
	return end, 1, 0
}

func (w *killRespawn) shape() chunkShape { return chunkShape{handler: "e1000_xmit_frame", calls: 1} }

func (w *killRespawn) check(a, b observed) []string {
	n := b.t.cycles - a.t.cycles
	out := expect(nil, "WorkerRespawns", b.c.WorkerRespawns-a.c.WorkerRespawns, n)
	out = expect(out, "WorkerServedCalls", b.c.WorkerServedCalls-a.c.WorkerServedCalls, n)
	out = expect(out, "e1000.decaf_tx_frames", b.tx-a.tx, n)
	out = expect(out, "cycles ending on the killed pid", b.t.stalePID-a.t.stalePID, 0)
	return out
}
