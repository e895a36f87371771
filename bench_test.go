package decafdrivers

// Repository-level benchmarks: one per table and figure in the paper's
// evaluation (see DESIGN.md's experiment index), plus microbenchmarks of
// the Decaf substrate and the ablations of DESIGN.md §5 (D1-D5).
//
// The table benchmarks report the paper's metrics as custom units via
// b.ReportMetric (virtual time, crossings, relative performance); wall-clock
// ns/op measures the simulation itself.

import (
	"testing"
	"time"

	"decafdrivers/internal/analysis"
	"decafdrivers/internal/bench"
	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/drivermodel"
	"decafdrivers/internal/evolution"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/objtrack"
	"decafdrivers/internal/slicer"
	"decafdrivers/internal/workload"
	"decafdrivers/internal/xdr"
	"decafdrivers/internal/xpc"
)

// --- Table 1: implementation size ---

func BenchmarkTable1CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(".")
		if err != nil {
			b.Skip("source tree unavailable:", err)
		}
		total := 0
		for _, r := range rows {
			total += r.Lines
		}
		b.ReportMetric(float64(total), "loc")
	}
}

// --- Table 2: slicing the five drivers ---

func BenchmarkTable2Slicing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("expected five drivers")
		}
	}
}

// --- Table 3: one benchmark per workload row ---

func table3Net(b *testing.B, boot func(xpc.Mode) (*workload.Testbed, error),
	nd func(*workload.Testbed) *knet.NetDevice, mbps float64, send bool,
	inject func(*workload.Testbed) func([]byte) bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		native, err := boot(xpc.ModeNative)
		if err != nil {
			b.Fatal(err)
		}
		decaf, err := boot(xpc.ModeDecaf)
		if err != nil {
			b.Fatal(err)
		}
		run := func(tb *workload.Testbed) workload.Result {
			var r workload.Result
			var err error
			if send {
				r, err = workload.NetperfSend(tb, nd(tb), mbps, 5*time.Second)
			} else {
				r, err = workload.NetperfRecv(tb, inject(tb), nd(tb), mbps, 5*time.Second)
			}
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		rn, rd := run(native), run(decaf)
		b.ReportMetric(rd.ThroughputMbps/rn.ThroughputMbps, "rel-perf")
		b.ReportMetric(rd.CPUUtil*100, "decaf-cpu-%")
		b.ReportMetric(float64(decaf.Load.InitLatency.Milliseconds()), "init-ms")
		b.ReportMetric(float64(decaf.InitCrossings()), "init-crossings")
	}
}

func BenchmarkTable3NetperfSend8139too(b *testing.B) {
	table3Net(b, workload.NewRTL8139,
		func(tb *workload.Testbed) *knet.NetDevice { return tb.RTL.NetDevice() },
		workload.FastEtherMbps, true, nil)
}

func BenchmarkTable3NetperfRecv8139too(b *testing.B) {
	table3Net(b, workload.NewRTL8139,
		func(tb *workload.Testbed) *knet.NetDevice { return tb.RTL.NetDevice() },
		workload.FastEtherMbps, false,
		func(tb *workload.Testbed) func([]byte) bool { return tb.RTLDev.InjectRx })
}

func BenchmarkTable3NetperfSendE1000(b *testing.B) {
	table3Net(b, workload.NewE1000,
		func(tb *workload.Testbed) *knet.NetDevice { return tb.E1000.NetDevice() },
		workload.GigabitMbps, true, nil)
}

func BenchmarkTable3NetperfRecvE1000(b *testing.B) {
	table3Net(b, workload.NewE1000,
		func(tb *workload.Testbed) *knet.NetDevice { return tb.E1000.NetDevice() },
		workload.GigabitMbps, false,
		func(tb *workload.Testbed) func([]byte) bool { return tb.E1000Dev.InjectRx })
}

func BenchmarkTable3Mpg123Ens1371(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := workload.NewEns1371(xpc.ModeDecaf)
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.Mpg123(tb, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CPUUtil*100, "decaf-cpu-%")
		b.ReportMetric(float64(res.Crossings), "playback-crossings")
		b.ReportMetric(float64(tb.Load.InitLatency.Milliseconds()), "init-ms")
		b.ReportMetric(float64(tb.InitCrossings()), "init-crossings")
	}
}

func BenchmarkTable3TarUhci(b *testing.B) {
	for i := 0; i < b.N; i++ {
		native, err := workload.NewUhci(xpc.ModeNative)
		if err != nil {
			b.Fatal(err)
		}
		decaf, err := workload.NewUhci(xpc.ModeDecaf)
		if err != nil {
			b.Fatal(err)
		}
		rn, err := workload.TarToFlash(native, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := workload.TarToFlash(decaf, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rd.ThroughputMbps/rn.ThroughputMbps, "rel-perf")
		b.ReportMetric(float64(decaf.Load.InitLatency.Milliseconds()), "init-ms")
		b.ReportMetric(float64(decaf.InitCrossings()), "init-crossings")
	}
}

func BenchmarkTable3MousePsmouse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := workload.NewPsmouse(xpc.ModeDecaf)
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.MoveAndClick(tb, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CPUUtil*100, "decaf-cpu-%")
		b.ReportMetric(float64(tb.Load.InitLatency.Milliseconds()), "init-ms")
		b.ReportMetric(float64(tb.InitCrossings()), "init-crossings")
	}
}

// --- Table 4: evolution ---

func BenchmarkTable4Evolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := drivermodel.E1000()
		rep, err := evolution.Apply(d, drivermodel.E1000Patches(d))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.DecafLines), "decaf-lines")
		b.ReportMetric(float64(rep.NucleusLines), "nucleus-lines")
		b.ReportMetric(float64(rep.InterfaceLines), "interface-lines")
	}
}

// --- Case study (§5.1, Figures 4 and 5) ---

func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := drivermodel.E1000()
		a := analysis.AuditErrorHandling(d)
		b.ReportMetric(float64(len(a.Defects)), "defects")
		b.ReportMetric(float64(a.LinesRemoved), "lines-removed")
		b.ReportMetric(float64(a.FunctionsConverted), "fns-converted")
	}
}

// --- Figure 2 / Figure 3 generators ---

func BenchmarkFig2StubGeneration(b *testing.B) {
	d := drivermodel.E1000()
	p, err := slicer.Slice(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stubs := slicer.GenerateStubs(p, "e1000_adapter")
		if len(stubs) == 0 {
			b.Fatal("no stubs")
		}
	}
}

func BenchmarkFig3XDRSpecGeneration(b *testing.B) {
	d := drivermodel.E1000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := slicer.GenerateXDRSpec(d)
		if err != nil {
			b.Fatal(err)
		}
		if len(spec.WrapperStructs) == 0 {
			b.Fatal("Figure 3 wrapper missing")
		}
	}
}

// --- substrate microbenchmarks ---

type benchRing struct {
	Count uint32
	Head  uint32
}

type benchAdapter struct {
	Name        string
	MsgEnable   int32
	LinkUp      bool
	MAC         [6]byte
	EEPROM      [64]uint16
	ConfigSpace [64]uint32
	Tx          benchRing
	Rx          *benchRing
}

func benchAdapterValue() *benchAdapter {
	return &benchAdapter{Name: "eth0", MsgEnable: 3, LinkUp: true, Rx: &benchRing{Count: 256}}
}

func BenchmarkXDRMarshalAdapter(b *testing.B) {
	c := &xdr.Codec{}
	a := benchAdapterValue()
	data, err := c.Marshal(a)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXDRUnmarshalAdapter(b *testing.B) {
	c := &xdr.Codec{}
	a := benchAdapterValue()
	data, err := c.Marshal(a)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	out := benchAdapterValue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchKernel() *kernel.Kernel {
	clock := ktime.NewClock()
	return kernel.New(clock, hw.NewBus(clock, 1<<20))
}

var (
	hBenchNoop, hBenchXmitInUser *registry.Handler
	downBenchXmit                = registry.DeclareDowncall("bench_xmit")
)

func init() {
	hBenchNoop = registry.Register("bench_noop", registry.Handler{Fn: func(*registry.Ctx) error { return nil }})
	hBenchXmitInUser = registry.Register("bench_xmit_in_user", registry.Handler{Down: true, Fn: func(c *registry.Ctx) error {
		_, err := c.Downcall(downBenchXmit, 0)
		return err
	}})
}

func BenchmarkXPCUpcallRoundTrip(b *testing.B) {
	k := newBenchKernel()
	rt := xpc.NewRuntime(k, "bench", xpc.ModeDecaf, nil)
	ctx := k.NewContext("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Call(ctx, hBenchNoop); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Elapsed().Nanoseconds())/float64(b.N), "virtual-ns/op")
}

func BenchmarkObjectTracker(b *testing.B) {
	tr := objtrack.NewTracker("bench")
	objs := make([]*benchRing, 1024)
	for i := range objs {
		objs[i] = &benchRing{Count: uint32(i)}
		if err := tr.Associate(objtrack.CPtr(0x1000+64*i), "benchRing", objs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr := objtrack.CPtr(0x1000 + 64*(i%1024))
		if _, ok := tr.LookupUser(ptr, "benchRing"); !ok {
			b.Fatal("lookup miss")
		}
		if _, _, ok := tr.LookupC(objs[i%1024]); !ok {
			b.Fatal("reverse miss")
		}
	}
}

// --- ablations (DESIGN.md D1-D3 and the paper's §4.2 proposal) ---

// BenchmarkAblationDataPathKernel vs ...DataPathUser: D1 — the cost of one
// packet-send if the data path were moved to user level. The virtual-time
// metric shows the collapse: a kernel send costs nanoseconds of virtual
// time; an upcall per packet costs tens of milliseconds.
func BenchmarkAblationDataPathKernel(b *testing.B) {
	tb, err := workload.NewE1000(xpc.ModeDecaf)
	if err != nil {
		b.Fatal(err)
	}
	ctx := tb.Kernel.NewContext("bench")
	nd := tb.E1000.NetDevice()
	pkt := knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nd.Transmit(ctx, pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Elapsed().Nanoseconds())/float64(b.N), "virtual-ns/op")
}

func BenchmarkAblationDataPathUser(b *testing.B) {
	tb, err := workload.NewE1000(xpc.ModeDecaf)
	if err != nil {
		b.Fatal(err)
	}
	ctx := tb.Kernel.NewContext("bench")
	nd := tb.E1000.NetDevice()
	pkt := knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 1000)
	rt := tb.Runtime
	rt.BindDowncall(downBenchXmit, func(kctx *kernel.Context, _ uint64) (uint64, error) {
		return 0, nd.Transmit(kctx, pkt)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Force the transmit through an upcall, as if xmit lived in the
		// decaf driver: its body reaches the device through a downcall.
		if err := rt.Call(ctx, hBenchXmitInUser); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Elapsed().Nanoseconds())/float64(b.N), "virtual-ns/op")
}

// BenchmarkAblationMaskedMarshal vs FullMarshal: D2 — field-level
// marshaling against whole-structure marshaling.
func BenchmarkAblationMaskedMarshal(b *testing.B) {
	benchMarshalAblation(b, false)
}

func BenchmarkAblationFullMarshal(b *testing.B) {
	benchMarshalAblation(b, true)
}

func benchMarshalAblation(b *testing.B, full bool) {
	b.Helper()
	k := newBenchKernel()
	mask := xdr.FieldMask{"benchAdapter": {"MsgEnable": true, "LinkUp": true, "Name": true}}
	rt := xpc.NewRuntime(k, "bench", xpc.ModeDecaf, mask)
	rt.UseFullMarshal = full
	ka, da := benchAdapterValue(), benchAdapterValue()
	if _, err := rt.Share(ka, da); err != nil {
		b.Fatal(err)
	}
	ctx := k.NewContext("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.SyncToUser(ctx, ka); err != nil {
			b.Fatal(err)
		}
	}
	c := rt.Counters()
	b.ReportMetric(float64(c.BytesKernelUser)/float64(b.N), "bytes/op")
}

// BenchmarkAblationStagedTransfer vs DirectTransfer: the §4.2 proposal —
// "optimizing our marshaling interface to transfer data directly between
// the driver nucleus and the decaf driver, rather than unmarshaling at
// user-level in C and re-marshaling in Java".
func BenchmarkAblationStagedTransfer(b *testing.B) {
	benchTransferAblation(b, false)
}

func BenchmarkAblationDirectTransfer(b *testing.B) {
	benchTransferAblation(b, true)
}

func benchTransferAblation(b *testing.B, direct bool) {
	b.Helper()
	k := newBenchKernel()
	rt := xpc.NewRuntime(k, "bench", xpc.ModeDecaf, nil)
	rt.DirectTransfer = direct
	ka, da := benchAdapterValue(), benchAdapterValue()
	if _, err := rt.Share(ka, da); err != nil {
		b.Fatal(err)
	}
	ctx := k.NewContext("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.SyncToUser(ctx, ka); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpinLock vs AlwaysSemaphore: D3 — a combolock acquired
// only in the kernel is a spinlock (paper §3.1.3), so its path is the
// spinlock's, against a plain semaphore under uncontended use.
func BenchmarkAblationSpinLock(b *testing.B) {
	k := newBenchKernel()
	ctx := k.NewContext("bench")
	l := kernel.NewSpinLock("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(ctx)
		l.Unlock(ctx)
	}
	b.ReportMetric(float64(ctx.Busy().Nanoseconds())/float64(b.N), "virtual-ns/op")
}

func BenchmarkAblationAlwaysSemaphore(b *testing.B) {
	k := newBenchKernel()
	ctx := k.NewContext("bench")
	s := kernel.NewSemaphore("bench", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Down(ctx)
		s.Up(ctx)
	}
	b.ReportMetric(float64(ctx.Busy().Nanoseconds())/float64(b.N), "virtual-ns/op")
}
