package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/xdr"
	"decafdrivers/internal/xpc"
)

// timeLoop calls fn back to back for about d, in five rounds, and returns
// the median round's nanoseconds per call and the allocations per call over
// the whole loop. The clock is read once per 64 calls so that bodies of a
// few nanoseconds are not measured as clock reads.
func timeLoop(d time.Duration, fn func()) (nsPerCall, allocsPerCall float64) {
	const rounds, stride = 5, 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var per []float64
	calls := 0
	for s := 0; s < rounds; s++ {
		n := 0
		begin := time.Now()
		deadline := begin.Add(d / rounds)
		now := begin
		for now.Before(deadline) {
			for i := 0; i < stride; i++ {
				fn()
			}
			n += stride
			now = time.Now()
		}
		per = append(per, float64(now.Sub(begin))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// gcDelta reports the collections between two MemStats readings: how many,
// their total pause and the longest one, in milliseconds.
func gcDelta(m0, m1 *runtime.MemStats) (cycles, totalMs, maxMs float64) {
	n := m1.NumGC - m0.NumGC
	var longest uint64
	for i := uint32(0); i < min(n, uint32(len(m1.PauseNs))); i++ {
		longest = max(longest, m1.PauseNs[(m1.NumGC-i+255)%256])
	}
	return float64(n), float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, float64(longest) / 1e6
}

// crossChunkPass times ProcTransport.CrossChunk — lane claim, frame encode,
// ring transit, completion await and checksum check, without the batch's
// bookkeeping above it or a handler body below — on prebuilt submissions of
// the workload's crossing shape. Each crossing is timed on its own and the
// median reported: a crossing's mean is set by how often the worker happened
// to park, and differs between two loops by more than the batch layer costs.
func crossChunkPass(g *rig, sh chunkShape, pool *payloadPool, d time.Duration) (p50PerCall, allocs float64, err error) {
	chunk := make([]*xpc.Submission, sh.calls)
	staged := make([]xpc.Payload, 0, sh.calls)
	for i := range chunk {
		p := xpc.Payload{Data: pool.take()}
		if sh.slots {
			p = g.r.AcquirePayload(p.Data)
			staged = append(staged, p)
		}
		chunk[i] = g.r.NewSubmission(&xpc.Call{Name: sh.handler, Up: true, Data: p.Data, Slot: p.Slot})
	}
	defer g.r.ReleasePayloads(staged)
	hist := new(durHist)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for deadline := start.Add(d); start.Before(deadline); {
		if err := g.pt.CrossChunk(g.r, g.ctx, chunk); err != nil {
			return 0, 0, err
		}
		end := time.Now()
		hist.add(int64(end.Sub(start)))
		start = end
	}
	runtime.ReadMemStats(&m1)
	return hist.quantile(0.5) / float64(sh.calls), float64(m1.Mallocs-m0.Mallocs) / float64(hist.n), nil
}

// spawnPass times a worker's birth: new transport, install, first crossing.
func spawnPass(payload []byte) (ms float64, err error) {
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		g, err := newRawRig()
		if err != nil {
			return 0, err
		}
		err = g.r.UpcallHandlerData(g.ctx, "e1000_xmit_frame", payload)
		times = append(times, float64(time.Since(t0))/1e6)
		g.close()
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// tracedRounds is how many untraced/traced window pairs the traced run
// alternates: the overhead ratio compares medians of neighbours in time, not
// two long windows that the machine may have treated differently.
const tracedRounds = 5

// perLayer measures the per-layer metrics of one workload: alternating
// untraced and traced windows (spans, counter deltas, tracing overhead), then
// isolation passes that call single layers directly on the same generated
// inputs.
func perLayer(wl workload, name string, seed uint64, warmup, seconds time.Duration, outDir string, log io.Writer) (result, error) {
	if err := wl.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer wl.close()
	warm(wl, warmup)

	// Three quarters of the time go to the windows, a third of that
	// untraced; the last quarter to the isolation passes.
	untracedPart, tracedPart := seconds/(4*tracedRounds), seconds/(2*tracedRounds)
	var res result
	tr := newTracer()
	buf := latBuf(tracedPart)
	tracedLat := make([]int64, 0, tracedRounds*cap(buf))
	// Counters and collections are read from the first snapshot to the
	// last, over traced and untraced ops alike.
	var first, last window
	var untracedRate, tracedRate []float64
	var ops, tracedOps, mallocs, ctlLocks uint64
	for i := 0; i < tracedRounds; i++ {
		u := runWindow(wl, untracedPart, nil, buf)
		res.tallyWindow(&u, log, fmt.Sprintf("untraced %d", i+1))
		untracedRate = append(untracedRate, u.opsPerSec())
		if i == 0 {
			first = u
		}
		t := runWindow(wl, tracedPart, tr, buf)
		res.tallyWindow(&t, log, fmt.Sprintf("traced %d", i+1))
		tracedRate = append(tracedRate, t.opsPerSec())
		tracedLat = append(tracedLat, t.latNs...)
		tracedOps += t.ops
		ops += u.ops + t.ops
		// Taking a snapshot allocates and takes the control lock itself,
		// so these two are summed window by window.
		mallocs += u.mem1.Mallocs - u.mem0.Mallocs + t.mem1.Mallocs - t.mem0.Mallocs
		ctlLocks += u.obs1.ctlBefore - u.obs0.ctlAfter + t.obs1.ctlBefore - t.obs0.ctlAfter
		last = t
	}
	slices.Sort(tracedLat)
	path, err := tr.write(outDir, name, seed)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "  %d ops traced, %d spans kept in %s\n", tracedOps, len(tr.kept), path)

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sh := wl.shape()
	calls := float64(sh.calls)

	// Shares of the op, from the spans. Single calls into a layer are
	// reported as medians, so that differences between them mean something;
	// per-packet costs of the driver, which are bimodal by design (every
	// 32nd transmit flushes), as means.
	root := tr.layer("op")
	set("op.self_ratio", float64(root.SelfNs)/float64(max(root.TotalNs, 1)), "ratio")
	set("trace_overhead_ratio", median(tracedRate)/median(untracedRate), "ratio")
	p999, _ := tailPercentile(tracedLat, 99.9)
	set("lat_us_p999", float64(p999)/1e3, "us")
	build, flush := tr.layer("xpc.batch.build"), tr.layer("xpc.batch.flush")
	set("xpc.batch.build_ns_per_call", build.P50Ns/calls, "ns")
	set("xpc.batch.flush_ns_per_call", flush.P50Ns/calls, "ns")
	set("xpc.worker.kill_detect_us", (tr.layer("xpc.worker.kill").P50Ns+tr.layer("xpc.worker.detect").P50Ns)/1e3, "us")
	set("xpc.worker.respawn_us", tr.layer("xpc.worker.respawn").P50Ns/1e3, "us")
	set("drivers.e1000.transmit_ns_per_pkt", tr.layer("drivers.e1000.transmit").meanNs(), "ns")
	set("drivers.e1000.rx_inject_ns_per_pkt", tr.layer("drivers.e1000.rx_inject").meanNs(), "ns")
	set("kernel.drain_deferred_ns_per_pkt", tr.layer("kernel.drain_deferred").meanNs(), "ns")

	// Work counted at the layer boundaries, over every window.
	c0, c1 := first.obs0.c, last.obs1.c
	perOp := func(after, before uint64) float64 { return float64(after-before) / float64(ops) }
	set("xpc.batch.allocs_per_call", 0, "count")
	if build.Count > 0 {
		set("xpc.batch.allocs_per_call", perOp(mallocs, 0), "count")
	}
	set("xpc.proc.ring_crossings_per_op", perOp(c1.RingCrossings, c0.RingCrossings), "count")
	set("xpc.proc.doorbell_wakeups_per_kop", 1e3*perOp(c1.DoorbellWakeups, c0.DoorbellWakeups), "count")
	set("xpc.proc.syscall_crossings_per_op", perOp(c1.SyscallCrossings, c0.SyscallCrossings), "count")
	set("xpc.proc.wire_bytes_per_op", perOp(c1.WireBytesOut+c1.WireBytesIn, c0.WireBytesOut+c0.WireBytesIn), "B")
	set("xpc.proc.lane_spills", float64(c1.LaneSpills-c0.LaneSpills), "count")
	set("xpc.proc.desc_ring_peak", float64(c1.DescRingPeak), "count")
	set("xpc.proc.control_acquires_per_op", perOp(ctlLocks, 0), "count")
	set("xpc.worker.served_calls_per_op", perOp(c1.WorkerServedCalls, c0.WorkerServedCalls), "count")
	set("xpc.worker.downcalls_per_op", perOp(c1.WorkerDowncalls, c0.WorkerDowncalls), "count")
	set("xpc.ring.direct_bytes_per_op", perOp(c1.BytesPayloadDirect, c0.BytesPayloadDirect), "B")
	set("xpc.ring.copied_bytes_per_op", perOp(c1.BytesPayloadCopied, c0.BytesPayloadCopied), "B")
	set("xpc.ring.exhausted", float64(c1.RingExhausted-c0.RingExhausted), "count")
	set("xpc.ring.peak", float64(c1.RingPeak), "count")
	set("xpc.objsync.bytes_per_op", perOp(c1.BytesKernelUser, c0.BytesKernelUser), "B")
	cycles, pauseMs, pauseMaxMs := gcDelta(&first.mem0, &last.mem1)
	set("go.gc_cycles", cycles, "count")
	set("go.gc_pause_ms_total", pauseMs, "ms")
	set("go.gc_pause_ms_max", pauseMaxMs, "ms")

	// Isolation passes: one layer at a time, called directly.
	pass := seconds / 40
	g := wl.base()
	pool := newPayloadPool(newRNG(seed))
	payload := pool.take()

	ccNs, ccAllocs, err := crossChunkPass(g, sh, &pool, 2*pass)
	if err != nil {
		return result{}, fmt.Errorf("CrossChunk pass: %w", err)
	}
	set("xpc.proc.cross_chunk_ns_per_call", ccNs, "ns")
	set("xpc.proc.cross_chunk_allocs", ccAllocs, "count")
	set("xpc.batch.self_ns_per_call", 0, "ns")
	if sh.lane {
		set("xpc.batch.self_ns_per_call", (build.P50Ns+flush.P50Ns)/calls-ccNs, "ns")
	}

	spawnMs, err := spawnPass(payload)
	if err != nil {
		return result{}, fmt.Errorf("spawn pass: %w", err)
	}
	set("xpc.worker.spawn_ms", spawnMs, "ms")

	set("xpc.ring.acquire_release_ns", 0, "ns")
	if g.r.PayloadRing() != nil {
		ns, _ := timeLoop(pass, func() { g.r.ReleasePayload(g.r.AcquirePayload(payload)) })
		set("xpc.ring.acquire_release_ns", ns, "ns")
	}

	frame := xdr.Frame{Kind: xdr.FrameCall, ID: 1, Up: true, Name: sh.handler, Data: payload}
	wire, err := xdr.AppendFrame(nil, frame)
	if err != nil {
		return result{}, err
	}
	ns, _ := timeLoop(pass, func() { wire, _ = xdr.AppendFrame(wire[:0], frame) })
	set("xdr.frame_encode_ns", ns, "ns")
	ns, _ = timeLoop(pass, func() { _, _, _ = xdr.DecodeFrame(wire) })
	set("xdr.frame_decode_ns", ns, "ns")

	ns, _ = timeLoop(pass, func() { _ = registry.Lookup(sh.handler) })
	set("registry.lookup_ns", ns, "ns")
	h, heap := registry.Lookup(sh.handler), registry.NewState()
	stubDown := func(string, uint64) (uint64, error) { return 0, nil }
	ns, _ = timeLoop(pass, func() { _ = h.Fn(registry.NewCtx(sh.handler, payload, heap, stubDown)) })
	set("registry.handler_body_ns", ns, "ns")

	// The layers only the whole-driver workload has read 0 elsewhere.
	set("xpc.objsync.sync_ns", 0, "ns")
	set("xpc.objsync.allocs", 0, "count")
	set("xdr.marshal_adapter_ns", 0, "ns")
	set("objtrack.lookup_ns", 0, "ns")
	set("drivers.e1000.crossings_per_pkt", 0, "count")
	set("drivers.e1000.probe_ms", 0, "ms")
	if np, ok := wl.(*netperf); ok {
		set("drivers.e1000.crossings_per_pkt", perOp(c1.Trips(), c0.Trips()), "count")
		if err := np.driverPasses(pass, set); err != nil {
			return result{}, err
		}
	}

	res.Correct = res.Failed == 0
	res.Metrics = m
	return res, nil
}

// driverPasses measures the layers only the whole-driver workload has: the
// shared adapter's object sync, its marshaling, the object tracker, and the
// driver's probe time.
func (w *netperf) driverPasses(pass time.Duration, set func(string, float64, string)) error {
	adapter, r := w.tb.E1000.Adapter, w.r
	var err error
	ns, allocs := timeLoop(pass, func() {
		if e := r.SyncToUser(w.ctx, adapter); e != nil && err == nil {
			err = e
		}
		if e := r.SyncToKernel(w.ctx, adapter); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("object sync pass: %w", err)
	}
	set("xpc.objsync.sync_ns", ns, "ns")
	set("xpc.objsync.allocs", allocs, "count")

	var wire []byte
	ns, _ = timeLoop(pass, func() {
		if wire, err = r.Masked.MarshalAppend(wire[:0], adapter); err != nil {
			wire = nil
		}
	})
	if err != nil {
		return fmt.Errorf("marshal pass: %w", err)
	}
	set("xdr.marshal_adapter_ns", ns, "ns")

	decaf := w.tb.E1000.DecafAdapter
	ns, _ = timeLoop(pass, func() {
		ptr, typ, _ := r.DecafTracker.LookupC(decaf)
		_, _ = r.DecafTracker.LookupUser(ptr, typ)
	})
	set("objtrack.lookup_ns", ns, "ns")

	set("drivers.e1000.probe_ms", float64(w.probe)/1e6, "ms")
	return nil
}
