// Command decafbench regenerates the paper's evaluation: Tables 1-4, the
// E1000 case study (§5), the batched-XPC-transport comparison (§4.2), and
// the zero-copy payload-ring comparison, printing measured values next to
// the published ones.
//
// Usage:
//
//	decafbench -table all
//	decafbench -table 3 -netperf 30s
//	decafbench -table casestudy
//	decafbench -table batch -batch 8,32 -transport all
//	decafbench -table zerocopy -slots 256 -rate 2.5
//	decafbench -table zerocopy -json        # machine-readable rows (CI baseline)
//	decafbench -table recovery -faults 40 -restart-policy backoff
//	decafbench -table recovery -transport proc -json   # real process-separated boundary
//	decafbench -table contend -transport proc -submitters 1,2,4,8   # lane-sharded concurrent submission
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"decafdrivers/internal/bench"
	"decafdrivers/internal/xpc"
)

// parseSubmitters parses the -submitters flag ("1,2,4,8" -> []int{1, 2, 4, 8}).
func parseSubmitters(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("submitter count %q (want integers >= 1)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseBatchSizes parses the -batch flag ("8,32" -> []int{8, 32}).
func parseBatchSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("batch size %q (want integers >= 2)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// The command-line flags, registered at package level so the tests can see
// which flags exist.
var (
	tableFlag     = flag.String("table", "all", "which table to regenerate: "+strings.Join(validTables, ", "))
	root          = flag.String("root", ".", "repository root (for Table 1 line counting)")
	netperf       = flag.Duration("netperf", 10*time.Second, "virtual duration of each netperf run")
	audio         = flag.Duration("audio", 30*time.Second, "virtual duration of the mpg123 run")
	tarBytes      = flag.Int("tar", 2<<20, "archive size for the tar workload, bytes")
	mouse         = flag.Duration("mouse", 30*time.Second, "virtual duration of the mouse workload")
	transport     = flag.String("transport", "all", "transports for the batch, zerocopy, recovery and contend tables: "+strings.Join(validTransports, ", "))
	batch         = flag.String("batch", "8,32", "comma-separated batch sizes for the batch table (the largest also sizes the zerocopy, recovery, contend and proc tables' coalescing)")
	rate          = flag.Float64("rate", 0, "offered load in Mb/s for the zerocopy/recovery tables (0 = default)")
	slots         = flag.Int("slots", 0, "payload-ring slots for the zerocopy table (0 = default; small values exercise the copy fallback)")
	submitters    = flag.String("submitters", "", "contend table: comma-separated concurrent submitter counts (default 1,2,4,8)")
	flushes       = flag.Int("flushes", 0, "contend table: total flushes per row, split across its submitters (0 = default)")
	faults        = flag.Uint64("faults", 0, "recovery table: inject a decaf-side panic on the Nth data-path upcall (0 = default)")
	restartPolicy = flag.String("restart-policy", "", "recovery table: restart policy, one of "+strings.Join(bench.RestartPolicies, ", "))
	jsonOut       = flag.Bool("json", false, "emit machine-readable JSON rows instead of the rendered table ("+strings.Join(jsonTables, ", ")+" only)")
	tracePath     = flag.String("trace", "", "proc table: write the flight-recorder timeline as Chrome trace-event JSON to this path (open in Perfetto)")
)

func main() {
	// A ProcTransport re-execs this binary as its decaf worker process;
	// the hook must run before flag parsing and never returns in worker
	// mode.
	xpc.MaybeRunWorker()
	flag.Parse()

	flags := benchFlags{
		Table:         *tableFlag,
		Transport:     *transport,
		JSON:          *jsonOut,
		RestartPolicy: *restartPolicy,
		Trace:         *tracePath,
		Set:           map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { flags.Set[f.Name] = true })
	if err := flags.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "decafbench: %v\n", err)
		os.Exit(2)
	}
	// The proc transport only runs when asked for: say so instead of letting
	// "-transport all" look like full coverage. The note goes to stderr so
	// -json output stays a clean envelope.
	if note := flags.transportNote(); note != "" {
		fmt.Fprintln(os.Stderr, note)
	}

	cfg := bench.Table3Config{
		NetperfDuration: *netperf,
		AudioDuration:   *audio,
		TarBytes:        *tarBytes,
		MouseDuration:   *mouse,
	}

	sizes, err := parseBatchSizes(*batch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decafbench: -batch: %v\n", err)
		os.Exit(2)
	}
	batchCfg := bench.BatchTableConfig{
		NetperfDuration: bench.DefaultBatchTableConfig.NetperfDuration,
		BatchSizes:      sizes,
		Transports:      *transport,
	}
	// The zerocopy table coalesces at the largest -batch value, and the
	// recovery, contend and proc tables share its coalescing size, so rows
	// at the same flags stay comparable.
	zcCfg := bench.ZeroCopyTableConfig{
		OfferedMbps: *rate,
		RingSlots:   *slots,
		Transports:  *transport,
	}
	for _, n := range sizes {
		zcCfg.BatchN = max(zcCfg.BatchN, n)
	}
	ks, err := parseSubmitters(*submitters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decafbench: -submitters: %v\n", err)
		os.Exit(2)
	}
	contendCfg := bench.ContendTableConfig{
		BatchN:     zcCfg.BatchN,
		Submitters: ks,
		Flushes:    *flushes,
		Transports: *transport,
	}
	// The traced proc storm shares the coalescing size; -submitters narrows
	// to its first value (the storm is one shape, not a sweep).
	procCfg := bench.ProcTraceConfig{
		BatchN:    zcCfg.BatchN,
		Flushes:   *flushes,
		TracePath: *tracePath,
	}
	if len(ks) > 0 {
		procCfg.Submitters = ks[0]
	}
	recCfg := bench.RecoveryTableConfig{
		OfferedMbps: *rate,
		BatchN:      zcCfg.BatchN,
		FaultNth:    *faults,
		Policy:      *restartPolicy,
		Transports:  *transport,
	}
	// The batch table defaults to shorter runs than Table 3 (the per-packet
	// ratios are duration-independent), but an explicit -netperf wins.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "netperf" {
			batchCfg.NetperfDuration = *netperf
			zcCfg.NetperfDuration = *netperf
			recCfg.NetperfDuration = *netperf
		}
	})

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "decafbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	switch *tableFlag {
	case "1":
		run("table 1", func() error { return bench.PrintTable1(os.Stdout, *root) })
	case "2":
		run("table 2", func() error { return bench.PrintTable2(os.Stdout) })
	case "3":
		run("table 3", func() error { return bench.PrintTable3(os.Stdout, cfg) })
	case "4":
		run("table 4", func() error { return bench.PrintTable4(os.Stdout) })
	case "casestudy":
		run("case study", func() error { return bench.PrintCaseStudy(os.Stdout) })
	case "batch":
		if *jsonOut {
			run("batch table", func() error { return bench.PrintBatchTableJSON(os.Stdout, batchCfg) })
			break
		}
		run("batch table", func() error { return bench.PrintBatchTable(os.Stdout, batchCfg) })
	case "zerocopy":
		if *jsonOut {
			run("zerocopy table", func() error { return bench.PrintZeroCopyTableJSON(os.Stdout, zcCfg) })
			break
		}
		run("zerocopy table", func() error { return bench.PrintZeroCopyTable(os.Stdout, zcCfg) })
	case "recovery":
		if *jsonOut {
			run("recovery table", func() error { return bench.PrintRecoveryTableJSON(os.Stdout, recCfg) })
			break
		}
		run("recovery table", func() error { return bench.PrintRecoveryTable(os.Stdout, recCfg) })
	case "contend":
		if *jsonOut {
			run("contend table", func() error { return bench.PrintContendTableJSON(os.Stdout, contendCfg) })
			break
		}
		run("contend table", func() error { return bench.PrintContendTable(os.Stdout, contendCfg) })
	case "proc":
		run("proc trace", func() error { return bench.PrintProcTrace(os.Stdout, procCfg) })
	case "all":
		run("table 1", func() error { return bench.PrintTable1(os.Stdout, *root) })
		run("table 2", func() error { return bench.PrintTable2(os.Stdout) })
		run("table 3", func() error { return bench.PrintTable3(os.Stdout, cfg) })
		run("table 4", func() error { return bench.PrintTable4(os.Stdout) })
		run("case study", func() error { return bench.PrintCaseStudy(os.Stdout) })
		run("batch table", func() error { return bench.PrintBatchTable(os.Stdout, batchCfg) })
		run("zerocopy table", func() error { return bench.PrintZeroCopyTable(os.Stdout, zcCfg) })
		run("recovery table", func() error { return bench.PrintRecoveryTable(os.Stdout, recCfg) })
		run("contend table", func() error { return bench.PrintContendTable(os.Stdout, contendCfg) })
	}
}
