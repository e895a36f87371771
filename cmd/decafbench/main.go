// Command decafbench regenerates the paper's evaluation: Tables 1-4 and the
// E1000 case study (§5), printing measured values next to the published
// ones, plus the shadow-driver recovery table and the wall-clock
// concurrent-submission table. The crossing and payload counts of the
// batched and zero-copy data paths are pinned by internal/workload's
// TestNetperfGoldenCounts, not printed here.
//
// Usage:
//
//	decafbench -table all
//	decafbench -table 3 -netperf 30s
//	decafbench -table casestudy
//	decafbench -table recovery -faults 40 -restart-policy backoff
//	decafbench -table recovery -json        # machine-readable rows (CI gate)
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

// The command-line flags, registered at package level so the tests can see
// which flags exist.
var (
	tableFlag     = flag.String("table", "all", "which table to regenerate: "+strings.Join(validTables, ", "))
	root          = flag.String("root", ".", "repository root (for Table 1 line counting)")
	netperf       = flag.Duration("netperf", 10*time.Second, "virtual duration of each netperf run")
	audio         = flag.Duration("audio", 30*time.Second, "virtual duration of the mpg123 run")
	tarBytes      = flag.Int("tar", 2<<20, "archive size for the tar workload, bytes")
	mouse         = flag.Duration("mouse", 30*time.Second, "virtual duration of the mouse workload")
	transport     = flag.String("transport", "all", "transports for the recovery and contend tables: "+strings.Join(validTransports, ", "))
	submitters    = flag.String("submitters", "", "contend table: comma-separated concurrent submitter counts (default 1,2,4,8)")
	flushes       = flag.Int("flushes", 0, "contend table: total flushes per row, split across its submitters (0 = default)")
	faults        = flag.Uint64("faults", 0, "recovery table: inject a decaf-side panic on the Nth data-path upcall (0 = default)")
	restartPolicy = flag.String("restart-policy", "", "recovery table: restart policy, one of "+strings.Join(bench.RestartPolicies, ", "))
	jsonOut       = flag.Bool("json", false, "emit machine-readable JSON rows instead of the rendered table ("+strings.Join(jsonTables, ", ")+" only)")
)

// batchN is the calls the recovery and contend tables coalesce per
// crossing, so their batched and proc rows stay comparable.
const batchN = 32

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

	ks, err := parseSubmitters(*submitters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decafbench: -submitters: %v\n", err)
		os.Exit(2)
	}
	contendCfg := bench.ContendTableConfig{
		BatchN:     batchN,
		Submitters: ks,
		Flushes:    *flushes,
		Transports: *transport,
	}
	recCfg := bench.RecoveryTableConfig{
		BatchN:     batchN,
		FaultNth:   *faults,
		Policy:     *restartPolicy,
		Transports: *transport,
	}
	if flags.Set["netperf"] {
		recCfg.NetperfDuration = *netperf
	}

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
	case "all":
		run("table 1", func() error { return bench.PrintTable1(os.Stdout, *root) })
		run("table 2", func() error { return bench.PrintTable2(os.Stdout) })
		run("table 3", func() error { return bench.PrintTable3(os.Stdout, cfg) })
		run("table 4", func() error { return bench.PrintTable4(os.Stdout) })
		run("case study", func() error { return bench.PrintCaseStudy(os.Stdout) })
		run("recovery table", func() error { return bench.PrintRecoveryTable(os.Stdout, recCfg) })
		run("contend table", func() error { return bench.PrintContendTable(os.Stdout, contendCfg) })
	}
}
