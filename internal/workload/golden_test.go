//go:build unix

package workload

import (
	"testing"
	"time"

	"decafdrivers/internal/xpc"
)

// netCounts are the counted columns of one netperf run over the decaf data
// path. All of them follow from the modeled timeline, so a run reproduces
// them exactly on any machine, under any transport; deltas over the
// measured phase except the two peaks, which are lifetime high-water marks.
type netCounts struct {
	Packets, Crossings, Batches uint64
	// Copied and Direct are payload bytes marshaled by copy and passed by
	// payload-ring slot.
	Copied, Direct uint64
	RingPeak       int64
	RingExhausted  uint64
	DescRingPeak   uint64
	RingCrossings  uint64
	Served         uint64 // WorkerServedCalls
	Downcalls      uint64 // WorkerDowncalls
}

// netCell is one (driver, workload) pairing the counts are taken on.
type netCell struct {
	boot func(NetOptions) (*Testbed, error)
	run  func(tb *Testbed, mbps float64, d time.Duration) (Result, error)
}

var (
	e1000Send = netCell{
		boot: func(o NetOptions) (*Testbed, error) { return NewE1000With(xpc.ModeDecaf, o) },
		run: func(tb *Testbed, mbps float64, d time.Duration) (Result, error) {
			return NetperfSend(tb, tb.E1000.NetDevice(), mbps, d)
		},
	}
	e1000Recv = netCell{
		boot: func(o NetOptions) (*Testbed, error) { return NewE1000With(xpc.ModeDecaf, o) },
		run: func(tb *Testbed, mbps float64, d time.Duration) (Result, error) {
			return NetperfRecv(tb, tb.E1000Dev.InjectRx, tb.E1000.NetDevice(), mbps, d)
		},
	}
	rtlRecv = netCell{
		boot: func(o NetOptions) (*Testbed, error) { return NewRTL8139With(xpc.ModeDecaf, o) },
		run: func(tb *Testbed, mbps float64, d time.Duration) (Result, error) {
			return NetperfRecv(tb, tb.RTLDev.InjectRx, tb.RTL.NetDevice(), mbps, d)
		},
	}
)

// wallCounts are the two columns the wall clock drives: whether a side
// parks, and so pays a doorbell syscall, depends on how the two processes
// are scheduled. They are bounded, never pinned.
type wallCounts struct {
	Doorbells, Syscalls uint64
}

func (c netCell) measure(t *testing.T, opts NetOptions, mbps float64, d time.Duration) (netCounts, wallCounts) {
	t.Helper()
	tb, err := c.boot(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Shutdown()
	before := tb.Runtime.Counters()
	res, err := c.run(tb, mbps, d)
	if err != nil {
		t.Fatal(err)
	}
	after := tb.Runtime.Counters()
	return netCounts{
			Packets:       res.Units,
			Crossings:     res.Crossings,
			Batches:       after.Batches - before.Batches,
			Copied:        after.BytesPayloadCopied - before.BytesPayloadCopied,
			Direct:        after.BytesPayloadDirect - before.BytesPayloadDirect,
			RingPeak:      after.RingPeak,
			RingExhausted: after.RingExhausted - before.RingExhausted,
			DescRingPeak:  after.DescRingPeak,
			RingCrossings: after.RingCrossings - before.RingCrossings,
			Served:        after.WorkerServedCalls - before.WorkerServedCalls,
			Downcalls:     after.WorkerDowncalls - before.WorkerDowncalls,
		}, wallCounts{
			Doorbells: after.DoorbellWakeups - before.DoorbellWakeups,
			Syscalls:  after.SyscallCrossings - before.SyscallCrossings,
		}
}

// The payload runs: a load every transport sustains, for 2 s of virtual
// time, with the coalescing window widened so a batch of 32 frames fills at
// that load (25% headroom; the 2 ms line-rate default would flush partial
// batches). The window is internal/bench's coalesceWindowFor(32, 2.5).
const (
	payloadMbps   = 2.5
	payloadDur    = 2 * time.Second
	payloadWindow = 187136 * time.Microsecond
	// gigabitDur is the line-rate runs' duration: long enough for
	// thousands of batches, short enough for -race.
	gigabitDur = 250 * time.Millisecond
)

// payloadBatched is the payload runs' batched(32) configuration.
var payloadBatched = NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 32, CoalesceWindow: payloadWindow}

// TestNetperfGoldenCounts pins, exactly, the counted columns of the netperf
// runs the decaf data path is judged by: per-call against batched(N)
// crossings (§4.2), the copy against the payload-ring path, the in-process
// against the process-separated transport, and the ring-exhaustion
// fallback. The counts follow from the modeled timeline, so any drift is a
// behaviour change: re-pin a row only when the change means to move it, and
// say why.
func TestNetperfGoldenCounts(t *testing.T) {
	perCall := NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 1, CoalesceWindow: payloadWindow}
	batched := payloadBatched
	proc := batched
	proc.Proc = true
	direct := func(o NetOptions) NetOptions { o.ZeroCopy = true; return o }
	gigabit := func(n int) NetOptions { return NetOptions{DataPath: xpc.DataPathDecaf, BatchN: n} }
	ring4 := direct(batched)
	ring4.RingSlots = 4

	// Each want lists netCounts in field order: packets, crossings,
	// batches, bytes copied, bytes direct, ring peak, ring exhausted,
	// descriptor-ring peak, ring crossings, worker-served calls, worker
	// downcalls.
	rows := []struct {
		name string
		cell netCell
		opts NetOptions
		mbps float64
		dur  time.Duration
		want netCounts
	}{
		{"e1000-send/per-call/copy", e1000Send, perCall, payloadMbps, payloadDur, netCounts{428, 430, 0, 627448, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/per-call/direct", e1000Send, direct(perCall), payloadMbps, payloadDur, netCounts{428, 430, 0, 0, 625736, 1, 0, 0, 0, 0, 0}},
		{"e1000-send/batched(32)/copy", e1000Send, batched, payloadMbps, payloadDur, netCounts{428, 16, 14, 627448, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/batched(32)/direct", e1000Send, direct(batched), payloadMbps, payloadDur, netCounts{428, 16, 14, 0, 625736, 32, 0, 0, 0, 0, 0}},
		{"e1000-send/proc(b32)/copy", e1000Send, proc, payloadMbps, payloadDur, netCounts{428, 16, 14, 627448, 0, 0, 0, 32, 15, 429, 1}},
		{"e1000-send/proc(b32)/direct", e1000Send, direct(proc), payloadMbps, payloadDur, netCounts{428, 16, 14, 0, 625736, 32, 0, 32, 15, 429, 1}},
		{"e1000-recv/per-call/copy", e1000Recv, perCall, payloadMbps, payloadDur, netCounts{80, 82, 0, 117280, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-recv/per-call/direct", e1000Recv, direct(perCall), payloadMbps, payloadDur, netCounts{80, 82, 0, 0, 116960, 16, 0, 0, 0, 0, 0}},
		{"e1000-recv/batched(32)/copy", e1000Recv, batched, payloadMbps, payloadDur, netCounts{224, 16, 14, 328384, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-recv/batched(32)/direct", e1000Recv, direct(batched), payloadMbps, payloadDur, netCounts{224, 16, 14, 0, 327488, 16, 0, 0, 0, 0, 0}},
		{"e1000-recv/proc(b32)/copy", e1000Recv, proc, payloadMbps, payloadDur, netCounts{224, 16, 14, 328384, 0, 0, 0, 16, 15, 225, 1}},
		{"e1000-recv/proc(b32)/direct", e1000Recv, direct(proc), payloadMbps, payloadDur, netCounts{224, 16, 14, 0, 327488, 16, 0, 16, 15, 225, 1}},
		{"8139too-recv/per-call/copy", rtlRecv, perCall, payloadMbps, payloadDur, netCounts{68, 68, 0, 99688, 0, 0, 0, 0, 0, 0, 0}},
		{"8139too-recv/per-call/direct", rtlRecv, direct(perCall), payloadMbps, payloadDur, netCounts{68, 68, 0, 0, 99416, 1, 0, 0, 0, 0, 0}},
		{"8139too-recv/batched(32)/copy", rtlRecv, batched, payloadMbps, payloadDur, netCounts{251, 7, 7, 328384, 0, 0, 0, 0, 0, 0, 0}},
		{"8139too-recv/batched(32)/direct", rtlRecv, direct(batched), payloadMbps, payloadDur, netCounts{251, 7, 7, 0, 327488, 32, 0, 0, 0, 0, 0}},
		{"8139too-recv/proc(b32)/copy", rtlRecv, proc, payloadMbps, payloadDur, netCounts{251, 7, 7, 328384, 0, 0, 0, 32, 7, 224, 0}},
		{"8139too-recv/proc(b32)/direct", rtlRecv, direct(proc), payloadMbps, payloadDur, netCounts{251, 7, 7, 0, 327488, 32, 0, 32, 7, 224, 0}},
		{"e1000-send/gigabit/nucleus", e1000Send, NetOptions{DataPath: xpc.DataPathNucleus}, GigabitMbps, gigabitDur, netCounts{21375, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/gigabit/per-call", e1000Send, gigabit(1), GigabitMbps, gigabitDur, netCounts{21375, 21375, 0, 31335750, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/gigabit/batched(8)", e1000Send, gigabit(8), GigabitMbps, gigabitDur, netCounts{21375, 2672, 2672, 31335750, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/gigabit/batched(32)", e1000Send, gigabit(32), GigabitMbps, gigabitDur, netCounts{21375, 668, 668, 31335750, 0, 0, 0, 0, 0, 0, 0}},
		{"e1000-send/ring4/batched(32)/direct", e1000Send, ring4, payloadMbps, payloadDur, netCounts{428, 16, 14, 545352, 81872, 4, 372, 0, 0, 0, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, w := row.cell.measure(t, row.opts, row.mbps, row.dur)
			if c != row.want {
				t.Errorf("counts = %+v\nwant     %+v", c, row.want)
			}
			o := row.opts
			switch {
			case o.Proc:
				// The boundary is a real process: chunks crossed on the
				// descriptor rings, the worker's handler table ran the
				// bodies, and steady state stayed on the rings instead of
				// waking a parked peer per packet.
				if c.RingCrossings == 0 || c.Served == 0 {
					t.Errorf("proc row crossed %d chunks on the rings, worker served %d calls: execution fell back in-process", c.RingCrossings, c.Served)
				}
				if 2*w.Doorbells >= c.Packets || w.Syscalls >= c.Packets {
					t.Errorf("%d doorbells, %d syscalls on %d packets: steady state left the rings", w.Doorbells, w.Syscalls, c.Packets)
				}
			default:
				if c.RingCrossings != 0 || c.Served != 0 || w.Doorbells != 0 || w.Syscalls != 0 {
					t.Errorf("in-process row shows a process boundary: %d ring crossings, %d served calls, %d doorbells, %d syscalls",
						c.RingCrossings, c.Served, w.Doorbells, w.Syscalls)
				}
			}
			if o.ZeroCopy && o.RingSlots == 0 && (c.Copied != 0 || c.Direct == 0) {
				t.Errorf("direct row copied %d B and passed %d B by slot: want 0 copied, some passed", c.Copied, c.Direct)
			}
			if o.RingSlots > 0 && (c.RingExhausted == 0 || c.Copied == 0 || c.Direct == 0) {
				t.Errorf("%d-slot ring exhausted %d times, copied %d B, passed %d B: want the copy fallback taken beside the ring",
					o.RingSlots, c.RingExhausted, c.Copied, c.Direct)
			}
		})
	}
}

// TestProcSteadyStateMatchesBatched: moving the decaf side into a real
// process leaves the modeled crossing economics alone. On every payload
// cell, over the copy and the payload-ring path, the proc transport carries
// the batched transport's packets in the batched transport's crossings.
func TestProcSteadyStateMatchesBatched(t *testing.T) {
	cells := []struct {
		name string
		cell netCell
	}{{"e1000-send", e1000Send}, {"e1000-recv", e1000Recv}, {"8139too-recv", rtlRecv}}
	for _, c := range cells {
		for _, zeroCopy := range []bool{false, true} {
			batched := payloadBatched
			batched.ZeroCopy = zeroCopy
			proc := batched
			proc.Proc = true
			b, _ := c.cell.measure(t, batched, payloadMbps, payloadDur)
			p, _ := c.cell.measure(t, proc, payloadMbps, payloadDur)
			if b.Packets != p.Packets || b.Crossings != p.Crossings {
				t.Errorf("%s (zero-copy %v): proc carried %d packets in %d crossings, batched %d in %d",
					c.name, zeroCopy, p.Packets, p.Crossings, b.Packets, b.Crossings)
			}
		}
	}
}
