package rtl8139

import (
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// DefaultTxHoldLimit bounds the frames the net-device recovery proxy holds
// for replay during an outage.
const DefaultTxHoldLimit = 64

// EnableRecovery attaches the shadow-driver state journal and arms the
// driver for supervision: probe and ifup are journaled for replay and the
// net-device proxy holds up to holdLimit TX frames during an outage (<=0
// selects DefaultTxHoldLimit). Call before LoadModule so the probe is
// journaled.
func (d *Driver) EnableRecovery(j *recovery.StateJournal, holdLimit int) {
	if holdLimit <= 0 {
		holdLimit = DefaultTxHoldLimit
	}
	d.journal = j
	d.holdLimit = holdLimit
}

// journalProbe records the probe (chip reset, EEPROM identification) as the
// first replayable configuration crossing.
func (d *Driver) journalProbe() {
	if d.journal == nil {
		return
	}
	d.journal.Record(recovery.Entry{Key: "probe", Name: "rtl8139_probe", Replay: d.probe})
}

// journalOpen records the interface bring-up (buffers, IRQ, chip start);
// Stop removes it.
func (d *Driver) journalOpen() {
	if d.journal == nil {
		return
	}
	d.journal.Record(recovery.Entry{Key: "ifup", Name: "rtl8139_open", Replay: d.open})
}

// RecoveryName implements recovery.Target.
func (d *Driver) RecoveryName() string { return "8139too" }

// BeginOutage implements recovery.Target. Idempotent for retried restarts.
func (d *Driver) BeginOutage(ctx *kernel.Context) {
	d.recovering = true
	d.netdev.BeginRecovery(d.holdLimit)
}

// TeardownForRecovery implements recovery.Target: quiesce the RX pipeline
// (settled flushes deliver, faulted ones drop, slots release), purge the
// coalescing queue with accounting, then release the kernel-side resources
// directly — the decaf side is suspect, so no crossings; the ifup replay
// rebuilds buffers, IRQ and chip state.
func (d *Driver) TeardownForRecovery(ctx *kernel.Context) error {
	d.rxTimer.Stop()
	d.rxFlushArmed = false
	if n := len(d.rxPending); n > 0 {
		d.rxPending = nil
		d.Adapter.Stats.RxDropped += uint64(n)
	}
	_ = d.rxInFlight.Drain(ctx, d.deliverFrames, d.dropFrames)
	_ = d.rt.DrainCrossings(ctx)

	d.stopChip(ctx)
	_ = d.kern.FreeIRQ(d.irq, "8139too")
	d.freeBuffers(ctx)
	return nil
}

// ResetDecafState implements recovery.Target: the cells the decaf driver's
// probe wrote are cleared (they outlive a worker process, so the probe
// replay must be what fills them again); the kernel-side adapter and the
// registered net device survive. Adaptive coalescing soft state (the
// interarrival EWMA) deliberately resets with the decaf side — it is
// re-learned, not replayed.
func (d *Driver) ResetDecafState(ctx *kernel.Context) error {
	if d.rt.Mode != xpc.ModeDecaf {
		return nil
	}
	st := d.rt.SharedState()
	st.Store(cellMAC, 0)
	for _, cell := range cellEEPROM {
		st.Store(cell, 0)
	}
	d.rxEwma, d.rxLastFrameAt = 0, 0
	return nil
}

// ResumeFromRecovery implements recovery.Target.
func (d *Driver) ResumeFromRecovery(ctx *kernel.Context) (replayed, dropped uint64) {
	d.recovering = false
	rep, drp := d.netdev.EndRecovery(ctx)
	return uint64(rep), uint64(drp)
}

// FailStop implements recovery.Target: held frames drop, carrier goes off,
// d.recovering stays set so no further decaf crossings are attempted.
func (d *Driver) FailStop(ctx *kernel.Context) {
	d.netdev.AbortRecovery()
	d.Adapter.LinkUp = false
}
