package bench

import (
	"fmt"
	"io"
	"time"

	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// ZeroCopyRow is one line of the zero-copy payload comparison: a netperf
// workload with the per-packet data path in the decaf driver, under one
// transport, with payloads either marshaled by copy or passed by
// payload-ring slot.
type ZeroCopyRow struct {
	Driver   string
	Workload string
	// Transport names the XPC transport ("per-call", "batched(N)",
	// "async(qD,bN)").
	Transport string
	// Payload is the payload path: "copy" (full marshal) or "direct"
	// (registered ring, slot descriptors).
	Payload        string
	ThroughputMbps float64
	CPUUtil        float64
	// Packets is the workload's packet count.
	Packets uint64
	// Crossings is the user/kernel trips during the workload phase.
	Crossings uint64
	// XPerPacket is Crossings/Packets — held equal between the copy and
	// direct rows so the byte columns isolate the payload path.
	XPerPacket float64
	// CopiedBPerPkt is payload bytes marshaled by copy, per packet: the
	// full frame on the copy path, ~0 on the direct path (only ring
	// exhaustion falls back).
	CopiedBPerPkt float64
	// DirectBPerPkt is payload bytes passed by slot reference, per packet.
	DirectBPerPkt float64
	// RingPeak is the payload ring's occupancy high-water mark (direct
	// rows only).
	RingPeak int64
	// RingExhausted counts acquisitions that fell back to the copy path
	// during the phase (direct rows only).
	RingExhausted uint64
	// SyscallCrossings counts the proc transport's real kernel entries
	// during the phase: doorbell syscalls. Every call rides the
	// shared-memory descriptor rings, so on proc rows this stays far below
	// Packets; WireBytes counts the framed socketpair bytes both ways
	// (control traffic only).
	SyscallCrossings uint64
	WireBytes        uint64
	// RingCrossings counts chunks that crossed into the worker on the
	// shared-memory descriptor rings, and DoorbellWakeups the park/wake
	// doorbell syscalls behind SyscallCrossings — non-zero only under the
	// process-separated transport. The CI gate asserts RingCrossings on
	// proc rows (a proc leg that silently ran in-process cannot pass) and
	// bounds DoorbellWakeups per packet.
	RingCrossings   uint64
	DoorbellWakeups uint64
	// DescRingPeak is the descriptor rings' occupancy high-water mark over
	// the transport's lifetime (proc rows only).
	DescRingPeak uint64
	// WorkerServedCalls counts decaf call bodies the worker process
	// actually executed from its handler table during the phase, and
	// WorkerDowncalls the nested downcalls those bodies crossed back with.
	// Nonzero on proc rows and exactly zero in-process — the CI gate's
	// proof that worker-side execution is live, not simulated.
	WorkerServedCalls uint64
	WorkerDowncalls   uint64
	// P50Us/P99Us/P999Us are caller-visible completion-latency percentiles
	// in microseconds: the virtual time each submission spent from submit
	// to completion (queue wait + crossing cost). Virtual time makes them
	// deterministic, so the baseline comparison bands them.
	P50Us  float64
	P99Us  float64
	P999Us float64
	// GCCycles/GCPauseTotalMs/GCPauseMaxMs are the Go collector's activity
	// during the phase. Wall-clock facts about the harness process —
	// excluded from baseline bands; CI only requires their presence.
	GCCycles       uint64
	GCPauseTotalMs float64
	GCPauseMaxMs   float64
}

// ZeroCopyTableConfig sizes and scopes the zero-copy comparison.
type ZeroCopyTableConfig struct {
	// NetperfDuration is each run's virtual duration.
	NetperfDuration time.Duration
	// OfferedMbps is the offered load (shared with the async table's
	// default so the crossings-per-packet columns are comparable).
	OfferedMbps float64
	// BatchN is the coalescing size shared by every batched/async row.
	BatchN int
	// QueueDepth bounds the async submission ring.
	QueueDepth int
	// RingSlots sizes the payload ring for the direct rows; <1 means
	// xpc.DefaultRingSlots. Deliberately tiny values exercise the
	// exhaustion fallback.
	RingSlots int
	// Transports filters rows: "all" (the in-process transports),
	// "per-call", "batched", "async", or "proc" (never part of "all").
	Transports string
}

// DefaultZeroCopyTableConfig compares copy vs direct payloads under the
// batched and async transports at the async table's offered load.
var DefaultZeroCopyTableConfig = ZeroCopyTableConfig{
	NetperfDuration: 5 * time.Second,
	OfferedMbps:     DefaultAsyncTableConfig.OfferedMbps,
	BatchN:          DefaultAsyncTableConfig.BatchN,
	QueueDepth:      xpc.DefaultQueueDepth,
	Transports:      "all",
}

func (cfg ZeroCopyTableConfig) fill() ZeroCopyTableConfig {
	d := DefaultZeroCopyTableConfig
	if cfg.NetperfDuration <= 0 {
		cfg.NetperfDuration = d.NetperfDuration
	}
	if cfg.OfferedMbps <= 0 {
		cfg.OfferedMbps = d.OfferedMbps
	}
	if cfg.BatchN < 2 {
		cfg.BatchN = d.BatchN
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = d.QueueDepth
	}
	return cfg
}

// zcTransport is one transport configuration a zero-copy cell runs under.
type zcTransport struct {
	name string
	opts workload.NetOptions
}

// transports enumerates the transport configurations one case runs under,
// honoring the filter (the async table's filter semantics).
func (cfg ZeroCopyTableConfig) transports() []zcTransport {
	acfg := AsyncTableConfig{Transports: cfg.Transports}
	var out []zcTransport
	if acfg.wants("per-call") {
		out = append(out, zcTransport{"per-call",
			workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 1}})
	}
	if acfg.wants("batched") {
		out = append(out, zcTransport{fmt.Sprintf("batched(%d)", cfg.BatchN),
			workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: cfg.BatchN}})
	}
	if acfg.wants("async") {
		out = append(out, zcTransport{fmt.Sprintf("async(q%d,b%d)", cfg.QueueDepth, cfg.BatchN),
			workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: cfg.BatchN,
				Async: true, QueueDepth: cfg.QueueDepth}})
	}
	if acfg.wants("proc") {
		out = append(out, zcTransport{fmt.Sprintf("proc(b%d)", cfg.BatchN),
			workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: cfg.BatchN, Proc: true}})
	}
	return out
}

func runZeroCopyCase(c asyncCase, opts workload.NetOptions, transport, payload string, cfg ZeroCopyTableConfig) (ZeroCopyRow, error) {
	opts.CoalesceWindow = coalesceWindowFor(cfg.BatchN, cfg.OfferedMbps)
	tb, err := c.boot(opts)
	if err != nil {
		return ZeroCopyRow{}, fmt.Errorf("%s/%s %s/%s: boot: %w", c.driver, c.workload, transport, payload, err)
	}
	defer tb.Shutdown()
	hist, detach := observeLatency(tb.Runtime)
	defer detach()
	var gc gcMeter
	gc.start()
	before := tb.Runtime.Counters()
	res, err := c.run(tb, cfg.OfferedMbps, cfg.NetperfDuration)
	if err != nil {
		return ZeroCopyRow{}, fmt.Errorf("%s/%s %s/%s: %w", c.driver, c.workload, transport, payload, err)
	}
	after := tb.Runtime.Counters()
	gcCycles, gcTotal, gcMax := gc.stop()
	row := ZeroCopyRow{
		Driver:           c.driver,
		Workload:         res.Workload,
		Transport:        transport,
		Payload:          payload,
		ThroughputMbps:   res.ThroughputMbps,
		CPUUtil:          res.CPUUtil,
		Packets:          res.Units,
		Crossings:        res.Crossings,
		RingPeak:         after.RingPeak,
		RingExhausted:    after.RingExhausted - before.RingExhausted,
		SyscallCrossings: after.SyscallCrossings - before.SyscallCrossings,
		WireBytes: (after.WireBytesOut - before.WireBytesOut) +
			(after.WireBytesIn - before.WireBytesIn),
		RingCrossings:     after.RingCrossings - before.RingCrossings,
		DoorbellWakeups:   after.DoorbellWakeups - before.DoorbellWakeups,
		DescRingPeak:      after.DescRingPeak,
		WorkerServedCalls: after.WorkerServedCalls - before.WorkerServedCalls,
		WorkerDowncalls:   after.WorkerDowncalls - before.WorkerDowncalls,
		P50Us:             hist.quantileUs(0.50),
		P99Us:             hist.quantileUs(0.99),
		P999Us:            hist.quantileUs(0.999),
		GCCycles:          gcCycles,
		GCPauseTotalMs:    float64(gcTotal) / float64(time.Millisecond),
		GCPauseMaxMs:      float64(gcMax) / float64(time.Millisecond),
	}
	if res.Units > 0 {
		row.XPerPacket = float64(res.Crossings) / float64(res.Units)
		row.CopiedBPerPkt = float64(after.BytesPayloadCopied-before.BytesPayloadCopied) / float64(res.Units)
		row.DirectBPerPkt = float64(after.BytesPayloadDirect-before.BytesPayloadDirect) / float64(res.Units)
	}
	return row, nil
}

// RunZeroCopyTable measures payload bytes copied per packet for the decaf
// data path with marshaled (copy) versus ring-slot (direct) payloads, under
// each selected transport. The copy and direct rows of a cell share the
// transport and coalescing size, so crossings per packet are equal and the
// byte columns isolate the payload path — the remaining §4.2 tax the
// payload ring removes.
func RunZeroCopyTable(cfg ZeroCopyTableConfig) ([]ZeroCopyRow, error) {
	cfg = cfg.fill()
	var rows []ZeroCopyRow
	for _, c := range asyncCases() {
		for _, tr := range cfg.transports() {
			copyRow, err := runZeroCopyCase(c, tr.opts, tr.name, "copy", cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, copyRow)

			opts := tr.opts
			opts.ZeroCopy = true
			opts.RingSlots = cfg.RingSlots
			directRow, err := runZeroCopyCase(c, opts, tr.name, "direct", cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, directRow)
		}
	}
	return rows, nil
}

// PrintZeroCopyTable runs and renders the zero-copy payload comparison.
func PrintZeroCopyTable(w io.Writer, cfg ZeroCopyTableConfig) error {
	cfg = cfg.fill()
	rows, err := RunZeroCopyTable(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Zero-copy payload ring: bytes copied per packet, copy vs direct at %.1f Mb/s offered load (§4.2)\n", cfg.OfferedMbps)
	fmt.Fprintln(w, "(decaf data path; copy and direct rows share transport and coalescing, so X/pkt is equal)")
	fmt.Fprintln(w)
	header := []string{"Driver", "Workload", "Transport", "Payload",
		"Mb/s", "CPU", "Packets", "X/pkt", "CopiedB/pkt", "DirectB/pkt", "RingPeak", "Exhausted",
		"p50µs", "p99µs", "p999µs", "RingX", "Bells", "Served"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Driver, r.Workload, r.Transport, r.Payload,
			fmt.Sprintf("%.1f", r.ThroughputMbps),
			fmt.Sprintf("%.1f%%", r.CPUUtil*100),
			fmt.Sprintf("%d", r.Packets),
			fmt.Sprintf("%.3f", r.XPerPacket),
			fmt.Sprintf("%.1f", r.CopiedBPerPkt),
			fmt.Sprintf("%.1f", r.DirectBPerPkt),
			fmt.Sprintf("%d", r.RingPeak),
			fmt.Sprintf("%d", r.RingExhausted),
			fmt.Sprintf("%.0f", r.P50Us),
			fmt.Sprintf("%.0f", r.P99Us),
			fmt.Sprintf("%.0f", r.P999Us),
			fmt.Sprintf("%d", r.RingCrossings),
			fmt.Sprintf("%d", r.DoorbellWakeups),
			fmt.Sprintf("%d", r.WorkerServedCalls),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "p50/p99/p999: caller-visible completion latency (virtual µs, submit to")
	fmt.Fprintln(w, "completion). RingX/Bells: proc rows only — chunks that crossed on the")
	fmt.Fprintln(w, "shared-memory descriptor rings vs doorbell syscalls spent waking a parked")
	fmt.Fprintln(w, "peer; steady state keeps Bells ≪ RingX ≪ Packets. Served: decaf call bodies")
	fmt.Fprintln(w, "the worker process executed from its handler table — nonzero on proc rows,")
	fmt.Fprintln(w, "exactly zero in-process, where the same bodies dispatch inline.")
	fmt.Fprintln(w, "CopiedB/pkt: payload bytes marshaled across the boundary per packet — the full")
	fmt.Fprintln(w, "frame on the copy path, ~0 on the direct path, where frames live in the")
	fmt.Fprintln(w, "pre-registered payload ring and only a 12-byte slot descriptor crosses")
	fmt.Fprintln(w, "(DirectB/pkt counts the bytes that rode the ring). Slots recycle when each")
	fmt.Fprintln(w, "flush's completion settles; an exhausted ring degrades to the copy fallback —")
	fmt.Fprintln(w, "never a block or a drop — and shows up in the Exhausted column.")
	return nil
}
