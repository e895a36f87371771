package bench

import (
	"fmt"
	"io"
	"time"

	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// Table3Row is one workload line of Table 3.
type Table3Row struct {
	Driver   string
	Workload string
	// RelativePerf is decaf throughput over native (0 when the workload
	// has no meaningful rate, rendered as "-").
	RelativePerf float64
	HasRate      bool
	CPUNative    float64
	CPUDecaf     float64
	// Init metrics are per driver, carried on the first row of each pair.
	InitNative     time.Duration
	InitDecaf      time.Duration
	InitCrossings  uint64
	HasInitMetrics bool
	// SteadyCrossings is the decaf deployment's crossings during the
	// workload (the §4.2 observation).
	SteadyCrossings uint64
}

// Table3Config sizes the workloads. Durations are virtual time.
type Table3Config struct {
	NetperfDuration time.Duration
	AudioDuration   time.Duration
	TarBytes        int
	MouseDuration   time.Duration
}

// RunTable3 executes every workload on native and decaf deployments.
func RunTable3(cfg Table3Config) ([]Table3Row, error) {
	var rows []Table3Row

	// --- 8139too: netperf send + recv at 100 Mb/s ---
	{
		n, err := workload.NewRTL8139(xpc.ModeNative)
		if err != nil {
			return nil, err
		}
		d, err := workload.NewRTL8139(xpc.ModeDecaf)
		if err != nil {
			return nil, err
		}
		initX := d.InitCrossings()
		rn, err := workload.NetperfSend(n, n.RTL.NetDevice(), workload.FastEtherMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rd, err := workload.NetperfSend(d, d.RTL.NetDevice(), workload.FastEtherMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "8139too", Workload: "netperf-send", HasRate: true,
			RelativePerf: rd.ThroughputMbps / rn.ThroughputMbps,
			CPUNative:    rn.CPUUtil, CPUDecaf: rd.CPUUtil,
			InitNative: n.Load.InitLatency, InitDecaf: d.Load.InitLatency,
			InitCrossings: initX, HasInitMetrics: true,
			SteadyCrossings: rd.Crossings,
		})
		rn2, err := workload.NetperfRecv(n, n.RTLDev.InjectRx, n.RTL.NetDevice(), workload.FastEtherMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rd2, err := workload.NetperfRecv(d, d.RTLDev.InjectRx, d.RTL.NetDevice(), workload.FastEtherMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "8139too", Workload: "netperf-recv", HasRate: true,
			RelativePerf: rd2.ThroughputMbps / rn2.ThroughputMbps,
			CPUNative:    rn2.CPUUtil, CPUDecaf: rd2.CPUUtil,
			SteadyCrossings: rd2.Crossings,
		})
	}

	// --- E1000: netperf send + recv at 1 Gb/s ---
	{
		n, err := workload.NewE1000(xpc.ModeNative)
		if err != nil {
			return nil, err
		}
		d, err := workload.NewE1000(xpc.ModeDecaf)
		if err != nil {
			return nil, err
		}
		initX := d.InitCrossings()
		rn, err := workload.NetperfSend(n, n.E1000.NetDevice(), workload.GigabitMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rd, err := workload.NetperfSend(d, d.E1000.NetDevice(), workload.GigabitMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "E1000", Workload: "netperf-send", HasRate: true,
			RelativePerf: rd.ThroughputMbps / rn.ThroughputMbps,
			CPUNative:    rn.CPUUtil, CPUDecaf: rd.CPUUtil,
			InitNative: n.Load.InitLatency, InitDecaf: d.Load.InitLatency,
			InitCrossings: initX, HasInitMetrics: true,
			SteadyCrossings: rd.Crossings,
		})
		rn2, err := workload.NetperfRecv(n, n.E1000Dev.InjectRx, n.E1000.NetDevice(), workload.GigabitMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rd2, err := workload.NetperfRecv(d, d.E1000Dev.InjectRx, d.E1000.NetDevice(), workload.GigabitMbps, cfg.NetperfDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "E1000", Workload: "netperf-recv", HasRate: true,
			RelativePerf: rd2.ThroughputMbps / rn2.ThroughputMbps,
			CPUNative:    rn2.CPUUtil, CPUDecaf: rd2.CPUUtil,
			SteadyCrossings: rd2.Crossings,
		})
	}

	// --- ens1371: mpg123 ---
	{
		n, err := workload.NewEns1371(xpc.ModeNative)
		if err != nil {
			return nil, err
		}
		d, err := workload.NewEns1371(xpc.ModeDecaf)
		if err != nil {
			return nil, err
		}
		initX := d.InitCrossings()
		rn, err := workload.Mpg123(n, cfg.AudioDuration)
		if err != nil {
			return nil, err
		}
		rd, err := workload.Mpg123(d, cfg.AudioDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "ens1371", Workload: "mpg123",
			CPUNative: rn.CPUUtil, CPUDecaf: rd.CPUUtil,
			InitNative: n.Load.InitLatency, InitDecaf: d.Load.InitLatency,
			InitCrossings: initX, HasInitMetrics: true,
			SteadyCrossings: rd.Crossings,
		})
	}

	// --- uhci-hcd: tar to flash ---
	{
		n, err := workload.NewUhci(xpc.ModeNative)
		if err != nil {
			return nil, err
		}
		d, err := workload.NewUhci(xpc.ModeDecaf)
		if err != nil {
			return nil, err
		}
		initX := d.InitCrossings()
		rn, err := workload.TarToFlash(n, cfg.TarBytes)
		if err != nil {
			return nil, err
		}
		rd, err := workload.TarToFlash(d, cfg.TarBytes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "uhci-hcd", Workload: "tar", HasRate: true,
			RelativePerf: rd.ThroughputMbps / rn.ThroughputMbps,
			CPUNative:    rn.CPUUtil, CPUDecaf: rd.CPUUtil,
			InitNative: n.Load.InitLatency, InitDecaf: d.Load.InitLatency,
			InitCrossings: initX, HasInitMetrics: true,
			SteadyCrossings: rd.Crossings,
		})
	}

	// --- psmouse: move-and-click ---
	{
		n, err := workload.NewPsmouse(xpc.ModeNative)
		if err != nil {
			return nil, err
		}
		d, err := workload.NewPsmouse(xpc.ModeDecaf)
		if err != nil {
			return nil, err
		}
		initX := d.InitCrossings()
		rn, err := workload.MoveAndClick(n, cfg.MouseDuration)
		if err != nil {
			return nil, err
		}
		rd, err := workload.MoveAndClick(d, cfg.MouseDuration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Driver: "psmouse", Workload: "move-and-click",
			CPUNative: rn.CPUUtil, CPUDecaf: rd.CPUUtil,
			InitNative: n.Load.InitLatency, InitDecaf: d.Load.InitLatency,
			InitCrossings: initX, HasInitMetrics: true,
			SteadyCrossings: rd.Crossings,
		})
	}
	return rows, nil
}

// paperTable3 holds the published values for side-by-side rendering.
var paperTable3 = map[string]struct {
	rel          string
	cpuN, cpuD   string
	initN, initD string
	crossings    string
}{
	"8139too/netperf-send":   {"1.00", "14%", "13%", "0.02s", "1.02s", "40"},
	"8139too/netperf-recv":   {"1.00", "17%", "15%", "-", "-", "-"},
	"E1000/netperf-send":     {"0.99", "2.8%", "3.7%", "0.42s", "4.87s", "91"},
	"E1000/netperf-recv":     {"1.00", "20%", "21%", "-", "-", "-"},
	"ens1371/mpg123":         {"-", "0.0%", "0.1%", "1.12s", "6.34s", "237"},
	"uhci-hcd/tar":           {"1.03", "0.1%", "0.1%", "1.32s", "2.67s", "49"},
	"psmouse/move-and-click": {"-", "0.1%", "0.1%", "0.04s", "0.40s", "24"},
}

// PrintTable3 runs and renders Table 3 with the paper's values alongside.
func PrintTable3(w io.Writer, cfg Table3Config) error {
	rows, err := RunTable3(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: performance of Decaf Drivers on common workloads and driver initialization")
	fmt.Fprintln(w, "(measured on the simulated testbed; 'paper' columns are the published values)")
	fmt.Fprintln(w)
	header := []string{"Driver", "Workload",
		"Rel.Perf", "(paper)",
		"CPU nat", "CPU decaf", "(paper)",
		"Init nat", "Init decaf", "(paper)",
		"Init X-ings", "(paper)", "Steady X-ings"}
	var out [][]string
	for _, r := range rows {
		p := paperTable3[r.Driver+"/"+r.Workload]
		rel := "-"
		if r.HasRate {
			rel = fmt.Sprintf("%.2f", r.RelativePerf)
		}
		initN, initD, initX := "-", "-", "-"
		if r.HasInitMetrics {
			initN = fmt.Sprintf("%.2fs", r.InitNative.Seconds())
			initD = fmt.Sprintf("%.2fs", r.InitDecaf.Seconds())
			initX = fmt.Sprintf("%d", r.InitCrossings)
		}
		out = append(out, []string{
			r.Driver, r.Workload,
			rel, p.rel,
			fmt.Sprintf("%.1f%%", r.CPUNative*100),
			fmt.Sprintf("%.1f%%", r.CPUDecaf*100),
			p.cpuN + "/" + p.cpuD,
			initN, initD, p.initN + "/" + p.initD,
			initX, p.crossings,
			fmt.Sprintf("%d", r.SteadyCrossings),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Steady X-ings: decaf-driver invocations during the workload itself;")
	fmt.Fprintln(w, "per §4.2 only the E1000 watchdog (every 2s) and ens1371 playback start/end cross.")
	return nil
}
