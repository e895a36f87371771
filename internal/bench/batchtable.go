package bench

import (
	"fmt"
	"io"
	"time"

	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// BatchRow is one line of the batched-crossing comparison: a netperf
// workload run with the per-packet data path in the decaf driver, under one
// transport.
type BatchRow struct {
	Driver   string
	Workload string
	// DataPath is where the per-packet path ran ("nucleus" or "decaf").
	DataPath string
	// Transport names the XPC transport ("per-call" or "batched(N)").
	Transport      string
	ThroughputMbps float64
	CPUUtil        float64
	// Packets is the workload's packet count.
	Packets uint64
	// Crossings is the user/kernel trips during the workload phase.
	Crossings uint64
	// Batches counts crossings that coalesced more than one call.
	Batches uint64
	// XPerPacket is Crossings/Packets — the §4.2 metric batching drives
	// from ~1 toward ~1/N.
	XPerPacket float64
	// XPerSec is Crossings over the workload's virtual duration.
	XPerSec float64
}

// BatchTableConfig sizes and scopes the batched-crossing comparison.
type BatchTableConfig struct {
	// NetperfDuration is each run's virtual duration.
	NetperfDuration time.Duration
	// BatchSizes are the batched-transport sizes to compare against the
	// per-call transport.
	BatchSizes []int
	// Transports filters rows (see wantsTransport): "all", "per-call", or
	// "batched".
	Transports string
}

// DefaultBatchTableConfig compares the per-call transport against two batch
// sizes on short runs (the crossings-per-packet ratio is duration-
// independent).
var DefaultBatchTableConfig = BatchTableConfig{
	NetperfDuration: 2 * time.Second,
	BatchSizes:      []int{8, 32},
	Transports:      "all",
}

// wantsTransport reports whether a -transport filter selects the rows of
// one transport kind: "per-call", "batched" or "proc". "all" covers the
// in-process transports. The process-separated transport spawns real worker
// processes, so it only runs when explicitly requested (-transport proc) —
// harnesses that cannot host the hidden worker mode would otherwise fork
// themselves.
func wantsTransport(filter, kind string) bool {
	switch filter {
	case "", "all":
		return kind != "proc"
	case "per-call", "sync":
		return kind == "per-call"
	case "batched", "batch":
		return kind == "batched"
	case "proc":
		return kind == "proc"
	default:
		// An unrecognized filter selects nothing rather than everything;
		// the CLI rejects unknown values before they reach here.
		return false
	}
}

// batchCase is one (driver, workload) cell of the comparison.
type batchCase struct {
	driver   string
	workload string
	boot     func(opts workload.NetOptions) (*workload.Testbed, error)
	run      func(tb *workload.Testbed, d time.Duration) (workload.Result, error)
}

func batchCases() []batchCase {
	return []batchCase{
		{
			driver: "E1000", workload: "netperf-send",
			boot: func(o workload.NetOptions) (*workload.Testbed, error) {
				return workload.NewE1000With(xpc.ModeDecaf, o)
			},
			run: func(tb *workload.Testbed, d time.Duration) (workload.Result, error) {
				return workload.NetperfSend(tb, tb.E1000.NetDevice(), workload.GigabitMbps, d)
			},
		},
		{
			driver: "E1000", workload: "netperf-recv",
			boot: func(o workload.NetOptions) (*workload.Testbed, error) {
				return workload.NewE1000With(xpc.ModeDecaf, o)
			},
			run: func(tb *workload.Testbed, d time.Duration) (workload.Result, error) {
				return workload.NetperfRecv(tb, tb.E1000Dev.InjectRx, tb.E1000.NetDevice(), workload.GigabitMbps, d)
			},
		},
		{
			driver: "8139too", workload: "netperf-recv",
			boot: func(o workload.NetOptions) (*workload.Testbed, error) {
				return workload.NewRTL8139With(xpc.ModeDecaf, o)
			},
			run: func(tb *workload.Testbed, d time.Duration) (workload.Result, error) {
				return workload.NetperfRecv(tb, tb.RTLDev.InjectRx, tb.RTL.NetDevice(), workload.FastEtherMbps, d)
			},
		},
	}
}

func runBatchCase(c batchCase, opts workload.NetOptions, transport string, d time.Duration) (BatchRow, error) {
	tb, err := c.boot(opts)
	if err != nil {
		return BatchRow{}, fmt.Errorf("%s/%s %s: boot: %w", c.driver, c.workload, transport, err)
	}
	before := tb.Runtime.Counters().Batches
	res, err := c.run(tb, d)
	if err != nil {
		return BatchRow{}, fmt.Errorf("%s/%s %s: %w", c.driver, c.workload, transport, err)
	}
	after := tb.Runtime.Counters().Batches
	row := BatchRow{
		Driver:   c.driver,
		Workload: res.Workload,
		DataPath: opts.DataPath.String(),
		Transport: func() string {
			if opts.DataPath == xpc.DataPathNucleus {
				return "nucleus"
			}
			return transport
		}(),
		ThroughputMbps: res.ThroughputMbps,
		CPUUtil:        res.CPUUtil,
		Packets:        res.Units,
		Crossings:      res.Crossings,
		Batches:        after - before,
	}
	if res.Units > 0 {
		row.XPerPacket = float64(res.Crossings) / float64(res.Units)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		row.XPerSec = float64(res.Crossings) / s
	}
	return row, nil
}

// RunBatchTable measures crossings-per-packet for the decaf data path under
// the per-call transport and each configured batch size, plus the nucleus
// data path as the paper's zero-crossing baseline.
func RunBatchTable(cfg BatchTableConfig) ([]BatchRow, error) {
	if cfg.NetperfDuration <= 0 {
		cfg.NetperfDuration = DefaultBatchTableConfig.NetperfDuration
	}
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = DefaultBatchTableConfig.BatchSizes
	}
	var rows []BatchRow
	for _, c := range batchCases() {
		// Baseline: the paper's split, data path in the nucleus.
		row, err := runBatchCase(c, workload.NetOptions{}, "nucleus", cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		// Decaf data path: per-call transport, then each batch size.
		if wantsTransport(cfg.Transports, "per-call") {
			row, err := runBatchCase(c, workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 1}, "per-call", cfg.NetperfDuration)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		if !wantsTransport(cfg.Transports, "batched") {
			continue
		}
		for _, n := range cfg.BatchSizes {
			name := fmt.Sprintf("batched(%d)", n)
			row, err := runBatchCase(c, workload.NetOptions{DataPath: xpc.DataPathDecaf, BatchN: n}, name, cfg.NetperfDuration)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintBatchTable runs and renders the batched-crossing comparison.
func PrintBatchTable(w io.Writer, cfg BatchTableConfig) error {
	rows, err := RunBatchTable(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Batched XPC transport: crossings per packet, per-call vs. batched (§4.2)")
	fmt.Fprintln(w, "(decaf deployment; 'nucleus' rows keep the data path in the kernel, the paper's split)")
	fmt.Fprintln(w)
	header := []string{"Driver", "Workload", "Data path", "Transport",
		"Mb/s", "CPU", "Packets", "X-ings", "Batches", "X/pkt", "X/sec"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Driver, r.Workload, r.DataPath, r.Transport,
			fmt.Sprintf("%.0f", r.ThroughputMbps),
			fmt.Sprintf("%.1f%%", r.CPUUtil*100),
			fmt.Sprintf("%d", r.Packets),
			fmt.Sprintf("%d", r.Crossings),
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%.3f", r.XPerPacket),
			fmt.Sprintf("%.0f", r.XPerSec),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "X/pkt: user/kernel crossings per packet. The batched transport coalesces up to")
	fmt.Fprintln(w, "N calls into one crossing, paying the kernel/user transition once per batch;")
	fmt.Fprintln(w, "for the send path X/pkt drops from ~1 to ~1/N.")
	return nil
}
