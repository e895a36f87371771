// Command decafrun boots a simulated machine, loads one of the five
// converted drivers in native or decaf deployment, runs its Table 3
// workload, and reports throughput, CPU utilization, initialization latency
// and crossing counts.
//
// Usage:
//
//	decafrun -driver e1000 -mode decaf -dur 10s
//	decafrun -driver psmouse -mode native
//	decafrun -driver e1000 -transport proc -batch 16   # decaf side in a real worker process
//	decafrun -driver e1000 -transport proc -trace run.json   # flight-recorder timeline (Perfetto)
//	decafrun -driver e1000 -metrics 127.0.0.1:9431           # live Prometheus + expvar endpoint
//	decafrun -driver e1000 -metrics-out counters.prom        # snapshot the counters to a file
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"decafdrivers/internal/metrics"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// netTransports are the -transport values; only the network drivers have a
// configurable decaf data path, so the flag is rejected elsewhere.
const netTransports = "sync, batch, proc"

func main() {
	// A ProcTransport re-execs this binary as its decaf worker process;
	// the hook must run before flag parsing and never returns in worker
	// mode.
	xpc.MaybeRunWorker()

	driver := flag.String("driver", "e1000", "driver: 8139too, e1000, ens1371, uhci-hcd, psmouse")
	modeFlag := flag.String("mode", "decaf", "deployment: native or decaf")
	dur := flag.Duration("dur", 10*time.Second, "virtual workload duration (tar uses -tar bytes instead)")
	tarBytes := flag.Int("tar", 2<<20, "archive bytes for the uhci-hcd tar workload")
	transport := flag.String("transport", "sync", "XPC transport for the network drivers' decaf data path: "+netTransports)
	batch := flag.Int("batch", 16, "calls coalesced per crossing for -transport batch/proc")
	tracePath := flag.String("trace", "", "write the flight-recorder timeline as Chrome trace-event JSON to this path (requires -transport proc; open in Perfetto)")
	metricsAddr := flag.String("metrics", "", "serve the live metrics surface on this address (/metrics Prometheus text, /debug/vars expvar) for the duration of the run")
	metricsOut := flag.String("metrics-out", "", "write a final Prometheus-text counter snapshot to this file (CI mode; no listener needed)")
	flag.Parse()

	var mode xpc.Mode
	switch *modeFlag {
	case "native":
		mode = xpc.ModeNative
	case "decaf":
		mode = xpc.ModeDecaf
	default:
		fmt.Fprintf(os.Stderr, "decafrun: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	opts := workload.NetOptions{}
	switch *transport {
	case "sync":
	case "batch":
		opts = workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: *batch}
	case "proc":
		opts = workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: *batch, Proc: true, ZeroCopy: true, Trace: *tracePath != ""}
	default:
		fmt.Fprintf(os.Stderr, "decafrun: unknown transport %q (valid: %s)\n", *transport, netTransports)
		os.Exit(2)
	}
	isNet := *driver == "e1000" || *driver == "8139too"
	if *transport != "sync" && !isNet {
		fmt.Fprintf(os.Stderr, "decafrun: -transport %s requires a network driver (e1000, 8139too)\n", *transport)
		os.Exit(2)
	}
	if *tracePath != "" && *transport != "proc" {
		fmt.Fprintln(os.Stderr, "decafrun: -trace requires -transport proc (the flight recorder's shm rings live in the worker's shared region)")
		os.Exit(2)
	}

	// Boot first, run second: the live metrics endpoint comes up between
	// the two, so a scraper watches the counters move during the workload.
	var (
		tb  *workload.Testbed
		run func() (workload.Result, error)
		res workload.Result
		err error
	)
	switch *driver {
	case "e1000":
		tb, err = workload.NewE1000With(mode, opts)
		run = func() (workload.Result, error) {
			return workload.NetperfSend(tb, tb.E1000.NetDevice(), workload.GigabitMbps, *dur)
		}
	case "8139too":
		tb, err = workload.NewRTL8139With(mode, opts)
		run = func() (workload.Result, error) {
			return workload.NetperfSend(tb, tb.RTL.NetDevice(), workload.FastEtherMbps, *dur)
		}
	case "ens1371":
		tb, err = workload.NewEns1371(mode)
		run = func() (workload.Result, error) { return workload.Mpg123(tb, *dur) }
	case "uhci-hcd":
		tb, err = workload.NewUhci(mode)
		run = func() (workload.Result, error) { return workload.TarToFlash(tb, *tarBytes) }
	case "psmouse":
		tb, err = workload.NewPsmouse(mode)
		run = func() (workload.Result, error) { return workload.MoveAndClick(tb, *dur) }
	default:
		fmt.Fprintf(os.Stderr, "decafrun: unknown driver %q\n", *driver)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "decafrun:", err)
		os.Exit(1)
	}
	defer tb.Shutdown()

	if *metricsAddr != "" {
		bound, closeMetrics, merr := metrics.Serve(*metricsAddr, tb.Runtime.Counters)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "decafrun: -metrics:", merr)
			os.Exit(1)
		}
		defer func() {
			if cerr := closeMetrics(); cerr != nil {
				fmt.Fprintln(os.Stderr, "decafrun: -metrics close:", cerr)
			}
		}()
		fmt.Printf("metrics:         http://%s/metrics (and /debug/vars)\n", bound)
	}

	res, err = run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decafrun:", err)
		os.Exit(1)
	}

	fmt.Printf("driver:          %s (%s deployment)\n", *driver, mode)
	fmt.Printf("transport:       %s\n", tb.Runtime.Transport().Name())
	fmt.Printf("init latency:    %v (%d user/kernel crossings)\n",
		tb.Load.InitLatency, tb.InitCrossings())
	fmt.Printf("workload:        %s over %v of virtual time\n", res.Workload, res.Elapsed)
	if res.ThroughputMbps > 0 {
		fmt.Printf("throughput:      %.1f Mb/s\n", res.ThroughputMbps)
	}
	fmt.Printf("CPU utilization: %.2f%%\n", res.CPUUtil*100)
	fmt.Printf("workload units:  %d\n", res.Units)
	fmt.Printf("steady-state crossings: %d\n", res.Crossings)
	c := tb.Runtime.Counters()
	fmt.Printf("total crossings: %d upcalls, %d downcalls\n", c.Upcalls, c.Downcalls)
	fmt.Printf("marshaled bytes: %d kernel/user, %d C/Java\n", c.BytesKernelUser, c.BytesCJava)
	if c.SyscallCrossings > 0 || c.RingCrossings > 0 {
		fmt.Printf("wire (worker process): %d syscall crossings, %d B out, %d B in, %d respawns\n",
			c.SyscallCrossings, c.WireBytesOut, c.WireBytesIn, c.WorkerRespawns)
		fmt.Printf("descriptor rings: %d ring crossings, %d doorbell wakeups, peak %d/%d slots\n",
			c.RingCrossings, c.DoorbellWakeups, c.DescRingPeak, c.DescRingEntries)
	}
	if names := c.CallNames(); len(names) > 0 {
		fmt.Println("entry points crossed:")
		for _, n := range names {
			fmt.Printf("  %6d  %s\n", c.PerCall[n], n)
		}
	}
	if c.TraceEvents > 0 || c.TraceDropped > 0 {
		fmt.Printf("flight recorder: %d events, %d dropped\n", c.TraceEvents, c.TraceDropped)
	}
	if *metricsOut != "" {
		if err := metrics.WriteSnapshotFile(*metricsOut, c); err != nil {
			fmt.Fprintln(os.Stderr, "decafrun: -metrics-out:", err)
			os.Exit(1)
		}
		fmt.Printf("counter snapshot: %s\n", *metricsOut)
	}
	if *tracePath != "" && tb.TraceCollector != nil {
		// Stop is idempotent (Shutdown repeats it): the final sweep plus the
		// synthesized GC-pause windows land before the export.
		tb.TraceCollector.Stop()
		if err := trace.WriteChromeFile(*tracePath, tb.TraceCollector.Events(), tb.TraceCollector.Dropped()); err != nil {
			fmt.Fprintln(os.Stderr, "decafrun: -trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace:           %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}
}
