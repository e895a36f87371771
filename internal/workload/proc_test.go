//go:build unix

package workload

import (
	"os"
	"runtime"
	"testing"
	"time"

	"decafdrivers/internal/knet"
	"decafdrivers/internal/xpc"
)

// TestMain routes the re-exec'd test binary into the decaf worker loop for
// the process-separated transport tests below.
func TestMain(m *testing.M) {
	xpc.MaybeRunWorker()
	os.Exit(m.Run())
}

// TestProcTransportNetperf: the decaf data path over a real process
// boundary — every crossing framed through the worker socketpair, payloads
// resident in the mmap-shared ring — carries a netperf run with the same
// crossing accounting as the in-process batched transport.
func TestProcTransportNetperf(t *testing.T) {
	opts := NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8, Proc: true, ZeroCopy: true}
	tb, err := NewE1000With(xpc.ModeDecaf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Shutdown()
	// The probe's module parameters cross by copy at boot; the frames after
	// it must not.
	bootCopied := tb.Runtime.Counters().BytesPayloadCopied
	res, err := NetperfSend(tb, tb.E1000.NetDevice(), 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units == 0 || res.Crossings == 0 {
		t.Fatalf("units=%d crossings=%d", res.Units, res.Crossings)
	}
	// The only syscalls of a run are doorbells, and whether this short run
	// happens to park a side depends on how the two processes are scheduled.
	// So force one: left idle the worker runs out its spin budget and parks,
	// and the next crossing has to pay (and count) the doorbell that wakes it.
	for i := 0; i < 100 && tb.Runtime.Counters().SyscallCrossings == 0; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := NetperfSend(tb, tb.E1000.NetDevice(), 5, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	c := tb.Runtime.Counters()
	// The control socket carries only the worker's layout acknowledgement.
	if c.SyscallCrossings == 0 || c.WireBytesOut != 0 || c.WireBytesIn == 0 {
		t.Fatalf("syscalls=%d wire out=%d in=%d, want syscalls > 0, out 0, in > 0", c.SyscallCrossings, c.WireBytesOut, c.WireBytesIn)
	}
	if c.BytesPayloadDirect == 0 {
		t.Fatal("no payload bytes rode the shared ring")
	}
	if c.BytesPayloadCopied != bootCopied {
		t.Fatalf("BytesPayloadCopied = %d (%d at boot) with a fresh mapped ring", c.BytesPayloadCopied, bootCopied)
	}
	if !c.WorkerAlive {
		t.Fatal("worker not alive after the run")
	}
}

// TestProcTransportRecoveryEndToEnd: an injected decaf fault under the
// process-separated transport SIGKILLs the worker; the supervisor detects
// it through the ordinary fault notification, respawns the worker process,
// re-registers the shared ring and replays the journal — and traffic
// resumes with no error ever surfacing to the kernel-side workload.
func TestProcTransportRecoveryEndToEnd(t *testing.T) {
	opts := NetOptions{
		DataPath: xpc.DataPathDecaf, BatchN: 8, Proc: true, ZeroCopy: true,
		Recovery: true,
		Faults:   FaultPlan{Call: "e1000_xmit_frame", Nth: 20},
	}
	tb, err := NewE1000With(xpc.ModeDecaf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Shutdown()
	res, err := NetperfSend(tb, tb.E1000.NetDevice(), 5, 2*time.Second)
	if err != nil {
		t.Fatalf("the fault leaked to the workload: %v", err)
	}
	if res.Units == 0 {
		t.Fatal("no packets carried")
	}
	st := tb.Sup.Stats()
	if st.Faults < 1 || st.Recoveries < 1 || st.FailStops != 0 {
		t.Fatalf("supervisor stats = %+v, want a detected fault and a successful recovery", st)
	}
	if st.Replayed < 2 {
		t.Fatalf("journal replayed %d entries, want probe+ifup", st.Replayed)
	}
	c := tb.Runtime.Counters()
	if c.WorkerDeaths < 1 {
		t.Fatalf("WorkerDeaths = %d: the fault did not kill the worker process", c.WorkerDeaths)
	}
	if c.WorkerRespawns < 1 {
		t.Fatalf("WorkerRespawns = %d: recovery did not restart the worker process", c.WorkerRespawns)
	}
	if !c.WorkerAlive {
		t.Fatal("worker not alive after recovery")
	}
	if st.SlotsReclaimed != 0 {
		t.Fatalf("quiesce stranded %d ring slots", st.SlotsReclaimed)
	}
}

// BenchmarkE1000DecafPacketPath drives the wall-clock benchmark's
// e1000_netperf shape through go test: 16 frames out and 16 frames in per
// iteration through the decaf data path over a real worker process, virtual
// time paced at gigabit wire rate and deferred work drained per frame,
// settled per iteration. It reports allocs/pkt, which the CI alloc gate
// holds under a ceiling. What is left is per burst — 8 allocations an
// iteration: the RX data block and packet slab (fresh on purpose, a sink may
// keep a packet), the RX work item's closure, a Batch and an aggregate
// Completion per flush in each direction, and the ktime.Timer of the TX
// coalescing arm.
func BenchmarkE1000DecafPacketPath(b *testing.B) {
	const burst = 16
	tb, err := NewE1000With(xpc.ModeDecaf, NetOptions{
		DataPath: xpc.DataPathDecaf, BatchN: 2 * burst, Proc: true, ZeroCopy: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Shutdown()
	nd := tb.E1000.NetDevice()
	sunk := 0
	nd.SetRxSink(func(*knet.Packet) { sunk++ })
	peer := [6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	out := knet.NewPacket(peer, nd.MAC, 0x0800, netperfPayload)
	in := knet.NewPacket(nd.MAC, peer, 0x0800, netperfPayload)
	wt := wireTime(out.Len(), GigabitMbps)
	ctx := tb.Kernel.NewContext("bench")
	iter := func() {
		for i := 0; i < burst; i++ {
			if err := nd.Transmit(ctx, out); err != nil {
				b.Fatal(err)
			}
			tb.Clock.Advance(wt)
			tb.drainDeferredWork()
		}
		for i := 0; i < burst; i++ {
			if !tb.E1000Dev.InjectRx(in.Data) {
				b.Fatal("adapter dropped a frame")
			}
			tb.Clock.Advance(wt)
			tb.drainDeferredWork()
		}
		tb.Settle(ctx)
	}
	for i := 0; i < 64; i++ { // past every pool's and ring's first growth
		iter()
	}
	sunk = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	pkts := float64(2 * burst * b.N)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pkts, "allocs/pkt")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
	if sunk != burst*b.N {
		b.Fatalf("RX sink saw %d frames, want %d", sunk, burst*b.N)
	}
	if got := tb.E1000.DecafTxFrames(); got < uint64(burst*b.N) {
		b.Fatalf("decaf TX body ran %d times, want at least %d", got, burst*b.N)
	}
}
