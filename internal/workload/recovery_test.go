package workload

import (
	"testing"
	"time"

	"decafdrivers/internal/drivers/e1000"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// recoveryTransports enumerates the three transport shapes every
// recovery-under-traffic test runs against.
func recoveryTransports() []struct {
	name string
	opts NetOptions
} {
	return []struct {
		name string
		opts NetOptions
	}{
		{"sync", NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 1}},
		{"batch", NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8}},
		{"async", NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8, Async: true, QueueDepth: 64}},
	}
}

// e1000ConfigSnapshot captures the replay-relevant configuration.
type e1000ConfigSnapshot struct {
	mac         [6]byte
	eeprom      [e1000.EEPROMWords]uint16
	txRing      uint32
	rxRing      uint32
	flowControl uint32
	phyID       uint32
}

func snapshotE1000(a *e1000.Adapter) e1000ConfigSnapshot {
	return e1000ConfigSnapshot{
		mac: a.MAC, eeprom: a.EEPROM, txRing: a.TxRingSize,
		rxRing: a.RxRingSize, flowControl: a.FlowControl, phyID: a.PhyID,
	}
}

// TestE1000RecoveryUnderNetperfSend is the acceptance scenario: an injected
// decaf-side panic mid-workload never surfaces to kernel callers, the
// testbed completes the phase, post-recovery driver config equals pre-fault
// config, held frames replay, and the payload ring's occupancy returns to
// zero — under Sync, Batch and Async transports.
func TestE1000RecoveryUnderNetperfSend(t *testing.T) {
	for _, tr := range recoveryTransports() {
		t.Run(tr.name, func(t *testing.T) {
			opts := tr.opts
			opts.ZeroCopy = true
			opts.Recovery = true
			opts.RestartPolicy = recovery.Backoff{Base: 10 * time.Millisecond}
			opts.Faults = FaultPlan{Call: "e1000_xmit_frame", Nth: 30}
			opts.CoalesceWindow = 40 * time.Millisecond
			tb, err := NewE1000With(xpc.ModeDecaf, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Shutdown()
			pre := snapshotE1000(tb.E1000.Adapter)

			// NetperfSend fails on any Transmit error: the fault must never
			// surface to the kernel caller.
			res, err := NetperfSend(tb, tb.E1000.NetDevice(), 2.5, 2*time.Second)
			if err != nil {
				t.Fatalf("fault surfaced to the workload: %v", err)
			}
			if res.Units == 0 {
				t.Fatal("phase transmitted nothing")
			}

			st := tb.Sup.Stats()
			if st.Faults == 0 || st.Recoveries == 0 {
				t.Fatalf("no recovery happened: %+v", st)
			}
			if st.State != recovery.StateMonitoring {
				t.Fatalf("supervisor state = %v after settle", st.State)
			}
			if st.LastLatency <= 0 || st.LastLatency > 10*time.Second {
				t.Fatalf("recovery latency unbounded: %v", st.LastLatency)
			}
			if st.Replayed < 2 {
				t.Fatalf("journal replayed %d entries, want probe+ifup", st.Replayed)
			}

			// Journal replay asserted: post-recovery config equals pre-fault
			// config on both sides of the boundary.
			if got := snapshotE1000(tb.E1000.Adapter); got != pre {
				t.Fatalf("kernel config changed across recovery:\npre  %+v\npost %+v", pre, got)
			}
			if got := snapshotE1000(tb.E1000.DecafAdapter); got != pre {
				t.Fatalf("decaf config not rebuilt to pre-fault state:\npre  %+v\npost %+v", pre, got)
			}

			// Held frames resolved: every frame that arrived during the
			// outage was replayed or dropped with accounting.
			nd := tb.E1000.NetDevice().Stats()
			if nd.TxHeld != nd.TxReplayed+nd.TxHeldDropped {
				t.Fatalf("held accounting broken: held=%d replayed=%d dropped=%d",
					nd.TxHeld, nd.TxReplayed, nd.TxHeldDropped)
			}

			// Slot-leak audit: ring occupancy returns to zero after the
			// faulted flush and the recovery ring swap.
			c := tb.Runtime.Counters()
			if c.RingInUse != 0 {
				t.Fatalf("payload ring leaked %d slots across a contained fault", c.RingInUse)
			}
			if c.FaultsInjected == 0 {
				t.Fatal("injector never fired")
			}
		})
	}
}

// TestRTL8139RecoveryUnderNetperfRecv: the receive-side acceptance — the
// faulted flush drops with accounting, wire frames lost during the outage
// are counted (not fatal), and the recovered driver delivers again.
func TestRTL8139RecoveryUnderNetperfRecv(t *testing.T) {
	for _, tr := range recoveryTransports() {
		t.Run(tr.name, func(t *testing.T) {
			opts := tr.opts
			opts.ZeroCopy = true
			opts.Recovery = true
			opts.RestartPolicy = recovery.Backoff{Base: 10 * time.Millisecond}
			opts.Faults = FaultPlan{Call: "rtl8139_rx_frame", Nth: 30}
			opts.CoalesceWindow = 40 * time.Millisecond
			tb, err := NewRTL8139With(xpc.ModeDecaf, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Shutdown()
			preMAC := tb.RTL.Adapter.MAC
			preEEPROM := tb.RTL.Adapter.EEPROM

			res, err := NetperfRecv(tb, tb.RTLDev.InjectRx, tb.RTL.NetDevice(), 2.5, 2*time.Second)
			if err != nil {
				t.Fatalf("fault surfaced to the workload: %v", err)
			}
			if res.Units == 0 {
				t.Fatal("phase received nothing")
			}

			st := tb.Sup.Stats()
			if st.Faults == 0 || st.Recoveries == 0 {
				t.Fatalf("no recovery happened: %+v", st)
			}
			if st.State != recovery.StateMonitoring {
				t.Fatalf("supervisor state = %v after settle", st.State)
			}
			// The restart cleared the decaf driver's probe cells and the probe
			// replay adopted the adapter from them again, so an unchanged
			// adapter is also the proof the decaf side was rebuilt.
			if tb.RTL.Adapter.MAC != preMAC || tb.RTL.Adapter.EEPROM != preEEPROM {
				t.Fatal("config not rebuilt to pre-fault state across recovery")
			}
			// The faulted flush's frames were dropped with accounting.
			if tb.RTL.Adapter.Stats.RxDropped == 0 {
				t.Fatal("faulted flush dropped nothing")
			}
			if c := tb.Runtime.Counters(); c.RingInUse != 0 {
				t.Fatalf("payload ring leaked %d slots", c.RingInUse)
			}
		})
	}
}

// TestRecoverySteadyStateAddsNoCrossings: arming supervision without a
// fault must leave the data path untouched — crossings per packet identical
// to an unsupervised run (journaling is kernel-side bookkeeping only).
func TestRecoverySteadyStateAddsNoCrossings(t *testing.T) {
	run := func(armed bool) (uint64, uint64) {
		opts := NetOptions{DataPath: xpc.DataPathDecaf, BatchN: 8, ZeroCopy: true,
			CoalesceWindow: 40 * time.Millisecond}
		if armed {
			opts.Recovery = true
		}
		tb, err := NewE1000With(xpc.ModeDecaf, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Shutdown()
		res, err := NetperfSend(tb, tb.E1000.NetDevice(), 2.5, 1*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res.Crossings, res.Units
	}
	offX, offPkts := run(false)
	armedX, armedPkts := run(true)
	if offPkts != armedPkts || offX != armedX {
		t.Fatalf("supervision changed the steady state: off %d X / %d pkts, armed %d X / %d pkts",
			offX, offPkts, armedX, armedPkts)
	}
}

// TestRecoveryFailStopMakesDeviceExplicitlyDead: a persistently crashing
// decaf driver exhausts its restart budget and fail-stops — held frames
// drop, the carrier goes off, and Transmit errors from then on.
func TestRecoveryFailStopMakesDeviceExplicitlyDead(t *testing.T) {
	opts := NetOptions{
		DataPath: xpc.DataPathDecaf, BatchN: 4, ZeroCopy: true,
		Recovery:      true,
		RestartPolicy: recovery.Immediate{MaxRestarts: 2},
		// Every data-path call from the 5th on faults: each restart's
		// replayed traffic faults again until the budget runs out.
		Faults:         FaultPlan{Call: "e1000_xmit_frame", Nth: 5, Repeat: true},
		CoalesceWindow: 40 * time.Millisecond,
	}
	tb, err := NewE1000With(xpc.ModeDecaf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Shutdown()
	ctx := tb.Kernel.NewContext("send")
	nd := tb.E1000.NetDevice()
	pkt := knet.NewPacket([6]byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}, nd.MAC, 0x0800, 256)
	sawError := false
	for i := 0; i < 400 && !sawError; i++ {
		if err := nd.Transmit(ctx, pkt); err != nil {
			sawError = true
		}
		tb.Clock.Advance(time.Millisecond)
		tb.drainDeferredWork()
	}
	st := tb.Sup.Stats()
	if st.FailStops != 1 || st.State != recovery.StateFailed {
		t.Fatalf("supervisor did not fail-stop: %+v", st)
	}
	if !sawError {
		t.Fatal("a fail-stopped device must error Transmit (carrier off)")
	}
	if nd.CarrierOK() {
		t.Fatal("carrier still on after fail-stop")
	}
}
