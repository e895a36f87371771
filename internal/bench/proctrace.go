package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xpc"
)

// ProcTraceConfig sizes the traced process-separated storm: a wall-clock
// submission storm against one ProcTransport with the flight recorder
// armed, exported as a Chrome trace-event file Perfetto can open.
type ProcTraceConfig struct {
	// BatchN is the calls coalesced per flush.
	BatchN int
	// Lanes is the transport's submission-lane count; <1 means the default.
	Lanes int
	// Submitters is K, the concurrent submitter goroutines.
	Submitters int
	// Flushes is the total flush count, split across the submitters.
	Flushes int
	// TraceEntries sizes each shm trace ring; 0 means the transport default.
	TraceEntries int
	// TracePath receives the Chrome trace-event JSON ("" skips the write —
	// tests exercise the storm without touching the filesystem).
	TracePath string
}

// DefaultProcTraceConfig keeps the traced storm short enough for a CI smoke
// step while still crossing every instrumented path: lane claims and
// spills (K > lane count is not required — chunked flushes alone exercise
// enqueue/doorbell/park/wake), plus a forced GC for the runtime track.
var DefaultProcTraceConfig = ProcTraceConfig{
	BatchN:     16,
	Submitters: 4,
	Flushes:    800,
}

func (cfg ProcTraceConfig) fill() ProcTraceConfig {
	d := DefaultProcTraceConfig
	if cfg.BatchN < 2 {
		cfg.BatchN = d.BatchN
	}
	if cfg.Submitters < 1 {
		cfg.Submitters = d.Submitters
	}
	if cfg.Flushes < 1 {
		cfg.Flushes = d.Flushes
	}
	// Tracing is the point of this storm: 0 (unset) means transport-default
	// rings, not ProcConfig's "0 disables tracing".
	if cfg.TraceEntries == 0 {
		cfg.TraceEntries = -1
	}
	return cfg
}

// ProcTraceResult summarizes one traced storm next to where its trace went.
type ProcTraceResult struct {
	// Transport names the transport ("proc(bN)").
	Transport string
	// Submitters/BatchN/Lanes echo the storm shape.
	Submitters int
	BatchN     int
	Lanes      int
	// Ops is calls completed; OpsPerSec is over the wall-clock window.
	Ops       uint64
	OpsPerSec float64
	// WallP50Us/WallP99Us/WallP999Us are per-flush wall-clock latency
	// percentiles in microseconds. The p999 tail is the number the GC track
	// exists to explain.
	WallP50Us  float64
	WallP99Us  float64
	WallP999Us float64
	// TraceEvents/TraceDropped are the recorder's lifetime totals
	// (xpc.Counters surfaces the same pair).
	TraceEvents  uint64
	TraceDropped uint64
	// GCPauses counts the stop-the-world windows synthesized into the trace.
	GCPauses int
	// TracePath is where the Chrome JSON landed ("" when skipped).
	TracePath string
}

// RunProcTrace storms a process-separated transport with the flight
// recorder armed and exports the merged kernel/worker/runtime timeline.
// Both sides of the process boundary append into the same shm trace rings;
// the collector drains them on the kernel side and the exporter pairs the
// kernel-side chunk spans with the worker-side serve spans via flow arrows.
func RunProcTrace(cfg ProcTraceConfig) (ProcTraceResult, error) {
	cfg = cfg.fill()
	clock := ktime.NewClock()
	k := kernel.New(clock, hw.NewBus(clock, 1<<20))
	r := xpc.NewRuntime(k, "proctrace", xpc.ModeDecaf, nil)
	// The modeled timeline is not under test here; zero virtual charges keep
	// the wall-clock measurement pure transport cost.
	r.Latency = xpc.ZeroLatencyModel

	// The recorder must be installed before the transport establishes its
	// first epoch: the FrameTraceRing handshake (which hands the worker its
	// ring) happens once per epoch, gated on a tracer being present.
	rec := trace.NewRecorder(0)
	r.SetTracer(rec)
	col := trace.NewCollector(rec, 0)

	pt, err := xpc.NewProcTransport(xpc.ProcConfig{
		Batch:        cfg.BatchN,
		Lanes:        cfg.Lanes,
		TraceEntries: cfg.TraceEntries,
	})
	if err != nil {
		return ProcTraceResult{}, err
	}
	r.SetTransport(pt)
	defer r.SetTransport(nil)

	col.Start()
	warm := k.NewContext("warmup")
	if err := r.UpcallHandler(warm, stormHandler); err != nil {
		col.Stop()
		return ProcTraceResult{}, fmt.Errorf("proc trace: warmup: %w", err)
	}

	per := cfg.Flushes / cfg.Submitters
	if per < 1 {
		per = 1
	}
	hist := new(latencyHist)
	errs := make(chan error, cfg.Submitters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.NewContext(fmt.Sprintf("submitter-%d", w))
			<-start
			for i := 0; i < per; i++ {
				// A forced collection mid-storm guarantees the runtime track
				// has at least one pause window overlapping the crossings, so
				// the exported timeline always demonstrates the p999-vs-GC
				// attribution the walkthrough describes.
				if w == 0 && i == per/2 {
					runtime.GC()
				}
				b := r.Batch(ctx)
				for j := 0; j < cfg.BatchN; j++ {
					b.UpcallHandler(stormHandler)
				}
				t0 := time.Now()
				if err := b.Flush(); err != nil {
					errs <- fmt.Errorf("proc trace: %w", err)
					return
				}
				hist.record(time.Since(t0))
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(errs)
	for err := range errs {
		col.Stop()
		return ProcTraceResult{}, err
	}
	// Let the worker-side completions land in the shm rings before the final
	// sweep: the last doorbell's serve may still be in flight on the other
	// side of the boundary.
	time.Sleep(20 * time.Millisecond)
	col.Stop()

	events := col.Events()
	gcPauses := 0
	for _, e := range events {
		if e.Kind == trace.KindGCPause {
			gcPauses++
		}
	}
	c := r.Counters()
	res := ProcTraceResult{
		Transport:    pt.Name(),
		Submitters:   cfg.Submitters,
		BatchN:       cfg.BatchN,
		Lanes:        pt.Lanes(),
		Ops:          uint64(cfg.Submitters) * uint64(per) * uint64(cfg.BatchN),
		WallP50Us:    hist.quantileUs(0.50),
		WallP99Us:    hist.quantileUs(0.99),
		WallP999Us:   hist.quantileUs(0.999),
		TraceEvents:  c.TraceEvents,
		TraceDropped: c.TraceDropped,
		GCPauses:     gcPauses,
		TracePath:    cfg.TracePath,
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	if cfg.TracePath != "" {
		if err := trace.WriteChromeFile(cfg.TracePath, events, col.Dropped()); err != nil {
			return ProcTraceResult{}, fmt.Errorf("proc trace: export: %w", err)
		}
	}
	return res, nil
}

// PrintProcTrace runs the traced storm and renders its summary; the trace
// itself goes to cfg.TracePath.
func PrintProcTrace(w io.Writer, cfg ProcTraceConfig) error {
	cfg = cfg.fill()
	res, err := RunProcTrace(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Traced process-separated storm: %d submitters, %d calls per flush (flight recorder on)\n", res.Submitters, res.BatchN)
	fmt.Fprintln(w)
	header := []string{"Transport", "K", "Lanes", "Ops", "Ops/s",
		"p50µs", "p99µs", "p999µs", "TraceEvents", "TraceDropped", "GCPauses"}
	out := [][]string{{
		res.Transport,
		fmt.Sprintf("%d", res.Submitters),
		fmt.Sprintf("%d", res.Lanes),
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%.0f", res.OpsPerSec),
		fmt.Sprintf("%.0f", res.WallP50Us),
		fmt.Sprintf("%.0f", res.WallP99Us),
		fmt.Sprintf("%.0f", res.WallP999Us),
		fmt.Sprintf("%d", res.TraceEvents),
		fmt.Sprintf("%d", res.TraceDropped),
		fmt.Sprintf("%d", res.GCPauses),
	}}
	table(w, header, out)
	fmt.Fprintln(w)
	if res.TracePath != "" {
		fmt.Fprintf(w, "Trace written to %s — open it at https://ui.perfetto.dev (kernel, worker\n", res.TracePath)
		fmt.Fprintln(w, "and Go-runtime tracks share one wall-clock timeline; flow arrows connect each")
		fmt.Fprintln(w, "kernel-side chunk to the worker-side serve that drained it).")
	} else {
		fmt.Fprintln(w, "No -trace path given: storm ran, trace discarded.")
	}
	return nil
}
