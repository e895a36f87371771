package bench

import (
	"fmt"
	"io"
	"time"

	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// RecoveryRow is one line of the fault-tolerance comparison: a netperf
// workload with the per-packet data path in the decaf driver, under one
// transport, in one of three scenarios — supervision off (baseline),
// supervision armed with no fault (steady-state overhead must be zero), and
// supervision armed with an injected decaf-side panic mid-phase (the
// recovery measurement).
type RecoveryRow struct {
	Driver   string
	Workload string
	// Transport names the XPC transport ("per-call", "batched(N)",
	// "async(qD,bN)").
	Transport string
	// Scenario is "off", "armed", or "fault".
	Scenario string
	// Policy names the restart policy ("" for the off scenario).
	Policy         string
	ThroughputMbps float64
	// Packets is the workload's packet count; Crossings the user/kernel
	// trips during the phase.
	Packets   uint64
	Crossings uint64
	// XPerPacket is Crossings/Packets. The off and armed rows must match
	// exactly: journaling is kernel-side bookkeeping, so supervision costs
	// zero crossings until a fault actually fires.
	XPerPacket float64
	// Faults counts contained decaf-side faults observed by the
	// supervisor; Recoveries the successful restarts; FailStops whether
	// the policy gave up.
	Faults     uint64
	Recoveries uint64
	FailStops  uint64
	// RecoveryLatencyMs is the virtual time from fault detection to resume
	// (teardown + policy backoff + journal replay), for the last recovery.
	RecoveryLatencyMs float64
	// JournalReplayed is the cumulative journal entries replayed.
	JournalReplayed uint64
	// TxHeld/TxReplayed/TxHeldDropped account the net-device proxy's held
	// frames during the outage: queued-and-replayed versus dropped.
	TxHeld        uint64
	TxReplayed    uint64
	TxHeldDropped uint64
	// WireDrops counts receive frames the wire lost while the adapter was
	// torn down (recv workloads).
	WireDrops uint64
	// RxDroppedDelta counts receive frames the driver dropped during the
	// phase (faulted flushes and recovery purges).
	RxDroppedDelta uint64
	// SlotsReclaimed counts payload-ring slots the supervisor had to
	// force-release at the ring swap (zero when quiesce released all).
	SlotsReclaimed uint64
	// SyscallCrossings counts the proc transport's real kernel entries
	// during the phase (doorbell syscalls: nothing else a crossing does
	// enters the kernel), and WireBytes the framed control-socketpair bytes
	// both ways (worker handshakes). Every call rides the shared-memory
	// descriptor rings, so the proc-row proof of a physical boundary is
	// RingCrossings.
	SyscallCrossings uint64
	WireBytes        uint64
	// RingCrossings counts chunks that crossed into the worker on the
	// shared-memory descriptor rings, and DoorbellWakeups the park/wake
	// doorbell syscalls — non-zero only under the process-separated
	// transport. The CI gate asserts RingCrossings on proc rows.
	RingCrossings   uint64
	DoorbellWakeups uint64
	// WorkerRespawns counts fresh decaf worker processes started after
	// boot: under the proc transport a recovery is a process that actually
	// died (SIGKILL) and was actually restarted.
	WorkerRespawns uint64
	// WorkerServedCalls counts decaf call bodies the worker process
	// executed from its handler table during the phase — nonzero on proc
	// rows (including post-recovery: the replayed journal runs through the
	// respawned worker) and exactly zero in-process.
	WorkerServedCalls uint64
}

// RecoveryTableConfig sizes and scopes the fault-tolerance comparison.
type RecoveryTableConfig struct {
	// NetperfDuration is each run's virtual duration.
	NetperfDuration time.Duration
	// OfferedMbps is the offered load (the async table's default, so the
	// crossings-per-packet columns stay comparable).
	OfferedMbps float64
	// BatchN is the coalescing size shared by batched/async rows.
	BatchN int
	// QueueDepth bounds the async submission ring.
	QueueDepth int
	// FaultNth selects which data-path upcall panics in the fault
	// scenario; <1 means the default (mid-phase).
	FaultNth uint64
	// Policy selects the restart policy: "immediate" or "backoff" (the
	// default — its delay opens an observable outage window).
	Policy string
	// Transports filters rows: "all" (the in-process transports),
	// "per-call", "batched", "async", or "proc" (never part of "all").
	Transports string
}

// RestartPolicies are the -restart-policy flag's accepted values.
var RestartPolicies = []string{"immediate", "backoff"}

// DefaultRecoveryTableConfig injects a fault on the 40th data-path upcall
// and restarts with backoff, at the async table's offered load.
var DefaultRecoveryTableConfig = RecoveryTableConfig{
	NetperfDuration: 5 * time.Second,
	OfferedMbps:     DefaultAsyncTableConfig.OfferedMbps,
	BatchN:          DefaultAsyncTableConfig.BatchN,
	QueueDepth:      xpc.DefaultQueueDepth,
	FaultNth:        40,
	Policy:          "backoff",
	Transports:      "all",
}

func (cfg RecoveryTableConfig) fill() RecoveryTableConfig {
	d := DefaultRecoveryTableConfig
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
	if cfg.FaultNth < 1 {
		cfg.FaultNth = d.FaultNth
	}
	if cfg.Policy == "" {
		cfg.Policy = d.Policy
	}
	return cfg
}

// restartPolicyFor maps a -restart-policy flag value to a recovery.Policy.
// The backoff delays are sized so the outage spans an observable number of
// frame times at the default offered load.
func restartPolicyFor(name string) (recovery.Policy, error) {
	switch name {
	case "immediate":
		return recovery.Immediate{}, nil
	case "", "backoff":
		return recovery.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}, nil
	default:
		return nil, fmt.Errorf("unknown restart policy %q (valid: immediate, backoff)", name)
	}
}

// recoveryCase is one (driver, workload) cell: the shared async case plus
// the data-path entry point the fault scenario targets and accessors for
// driver-side drop accounting.
type recoveryCase struct {
	asyncCase
	faultCall string
	netdev    func(tb *workload.Testbed) *knet.NetDevice
	rxDropped func(tb *workload.Testbed) uint64
}

func recoveryCases() []recoveryCase {
	all := asyncCases()
	return []recoveryCase{
		{
			asyncCase: all[0], // E1000 netperf-send
			faultCall: "e1000_xmit_frame",
			netdev:    func(tb *workload.Testbed) *knet.NetDevice { return tb.E1000.NetDevice() },
			rxDropped: func(tb *workload.Testbed) uint64 { return tb.E1000.Adapter.Stats.RxDropped },
		},
		{
			asyncCase: all[2], // 8139too netperf-recv
			faultCall: "rtl8139_rx_frame",
			netdev:    func(tb *workload.Testbed) *knet.NetDevice { return tb.RTL.NetDevice() },
			rxDropped: func(tb *workload.Testbed) uint64 { return tb.RTL.Adapter.Stats.RxDropped },
		},
	}
}

// recoveryTransports enumerates the transport configurations, honoring the
// filter. Every row runs the decaf data path with a registered payload ring,
// so recovery also exercises the ring swap.
func (cfg RecoveryTableConfig) transports() []zcTransport {
	base := ZeroCopyTableConfig{BatchN: cfg.BatchN, QueueDepth: cfg.QueueDepth, Transports: cfg.Transports}
	out := base.transports()
	for i := range out {
		out[i].opts.ZeroCopy = true
	}
	return out
}

func runRecoveryCase(c recoveryCase, opts workload.NetOptions, transport, scenario string, cfg RecoveryTableConfig) (RecoveryRow, error) {
	opts.CoalesceWindow = coalesceWindowFor(cfg.BatchN, cfg.OfferedMbps)
	tb, err := c.boot(opts)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("%s/%s %s/%s: boot: %w", c.driver, c.workload, transport, scenario, err)
	}
	defer tb.Shutdown()
	nd := c.netdev(tb)
	ndBefore := nd.Stats()
	rxBefore := c.rxDropped(tb)
	before := tb.Runtime.Counters()
	res, err := c.run(tb, cfg.OfferedMbps, cfg.NetperfDuration)
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("%s/%s %s/%s: %w", c.driver, c.workload, transport, scenario, err)
	}
	ndAfter := nd.Stats()
	after := tb.Runtime.Counters()
	row := RecoveryRow{
		Driver:           c.driver,
		Workload:         res.Workload,
		Transport:        transport,
		Scenario:         scenario,
		ThroughputMbps:   res.ThroughputMbps,
		Packets:          res.Units,
		Crossings:        res.Crossings,
		WireDrops:        res.WireDrops,
		RxDroppedDelta:   c.rxDropped(tb) - rxBefore,
		TxHeld:           ndAfter.TxHeld - ndBefore.TxHeld,
		TxReplayed:       ndAfter.TxReplayed - ndBefore.TxReplayed,
		TxHeldDropped:    ndAfter.TxHeldDropped - ndBefore.TxHeldDropped,
		SyscallCrossings: after.SyscallCrossings - before.SyscallCrossings,
		WireBytes: (after.WireBytesOut - before.WireBytesOut) +
			(after.WireBytesIn - before.WireBytesIn),
		RingCrossings:     after.RingCrossings - before.RingCrossings,
		DoorbellWakeups:   after.DoorbellWakeups - before.DoorbellWakeups,
		WorkerRespawns:    after.WorkerRespawns,
		WorkerServedCalls: after.WorkerServedCalls - before.WorkerServedCalls,
	}
	if res.Units > 0 {
		row.XPerPacket = float64(res.Crossings) / float64(res.Units)
	}
	if tb.Sup != nil {
		st := tb.Sup.Stats()
		row.Policy = tb.Sup.Policy().Name()
		row.Faults = st.Faults
		row.Recoveries = st.Recoveries
		row.FailStops = st.FailStops
		row.RecoveryLatencyMs = float64(st.LastLatency) / float64(time.Millisecond)
		row.JournalReplayed = st.Replayed
		row.SlotsReclaimed = st.SlotsReclaimed
	}
	return row, nil
}

// RunRecoveryTable measures the recovery subsystem end to end: for every
// (driver, workload) × transport cell it runs the baseline (supervision
// off), the armed-no-fault control (crossings per packet must equal the
// baseline — journaling is free until a fault fires), and the fault
// scenario (an injected decaf-side panic mid-phase that the supervisor
// turns into a transparent restart: bounded recovery latency, held frames
// replayed, dropped frames accounted, never an error to kernel callers).
func RunRecoveryTable(cfg RecoveryTableConfig) ([]RecoveryRow, error) {
	cfg = cfg.fill()
	policy, err := restartPolicyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	var rows []RecoveryRow
	for _, c := range recoveryCases() {
		for _, tr := range cfg.transports() {
			offRow, err := runRecoveryCase(c, tr.opts, tr.name, "off", cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, offRow)

			armed := tr.opts
			armed.Recovery = true
			armed.RestartPolicy = policy
			armedRow, err := runRecoveryCase(c, armed, tr.name, "armed", cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, armedRow)

			faulted := armed
			faulted.Faults = workload.FaultPlan{Call: c.faultCall, Nth: cfg.FaultNth}
			faultRow, err := runRecoveryCase(c, faulted, tr.name, "fault", cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, faultRow)
		}
	}
	return rows, nil
}

// PrintRecoveryTable runs and renders the fault-tolerance comparison.
func PrintRecoveryTable(w io.Writer, cfg RecoveryTableConfig) error {
	cfg = cfg.fill()
	rows, err := RunRecoveryTable(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Shadow-driver recovery: injected decaf-side panic on data-path upcall %d at %.1f Mb/s offered load\n",
		cfg.FaultNth, cfg.OfferedMbps)
	fmt.Fprintln(w, "(decaf data path + payload ring; off and armed rows must match X/pkt exactly — journaling is free until a fault fires)")
	fmt.Fprintln(w)
	header := []string{"Driver", "Workload", "Transport", "Scenario", "Policy",
		"Mb/s", "Packets", "X/pkt", "Faults", "Recov", "Lat(ms)", "Replayed",
		"Held", "HeldReplay", "HeldDrop", "WireDrop", "RxDrop", "Reclaimed", "Respawn", "Served"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Driver, r.Workload, r.Transport, r.Scenario, r.Policy,
			fmt.Sprintf("%.1f", r.ThroughputMbps),
			fmt.Sprintf("%d", r.Packets),
			fmt.Sprintf("%.3f", r.XPerPacket),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%d", r.Recoveries),
			fmt.Sprintf("%.3f", r.RecoveryLatencyMs),
			fmt.Sprintf("%d", r.JournalReplayed),
			fmt.Sprintf("%d", r.TxHeld),
			fmt.Sprintf("%d", r.TxReplayed),
			fmt.Sprintf("%d", r.TxHeldDropped),
			fmt.Sprintf("%d", r.WireDrops),
			fmt.Sprintf("%d", r.RxDroppedDelta),
			fmt.Sprintf("%d", r.SlotsReclaimed),
			fmt.Sprintf("%d", r.WorkerRespawns),
			fmt.Sprintf("%d", r.WorkerServedCalls),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A fault never surfaces to kernel callers: the faulted flush's frames drop with")
	fmt.Fprintln(w, "accounting (RxDrop), the supervisor quiesces, rebuilds the decaf side (fresh")
	fmt.Fprintln(w, "shared objects, re-registered payload ring) and replays the state journal")
	fmt.Fprintln(w, "(Replayed = probe + ifup entries). During the outage the net device looks slow,")
	fmt.Fprintln(w, "not dead: TX frames are held and replayed at resume (Held/HeldReplay), receive")
	fmt.Fprintln(w, "frames on the wire are lost and counted (WireDrop). Lat is fault-to-resume")
	fmt.Fprintln(w, "virtual time: teardown + policy backoff + journal replay. Served: call bodies")
	fmt.Fprintln(w, "the worker process executed from its handler table — on proc rows the replay")
	fmt.Fprintln(w, "itself runs through the respawned worker; in-process rows stay 0.")
	return nil
}
