package e1000

import (
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// DefaultTxHoldLimit bounds the frames the net-device recovery proxy holds
// for replay during an outage (roughly one transmit ring's worth): beyond
// it, frames drop with accounting rather than queueing without bound.
const DefaultTxHoldLimit = 256

// EnableRecovery attaches the shadow-driver state journal and arms the
// driver for supervision: configuration-establishing crossings (probe,
// ifup) are journaled for replay, the TX path absorbs fault-contained flush
// outcomes (the supervisor owns the restart), and the net-device proxy
// holds up to DefaultTxHoldLimit frames during an outage. Call before
// LoadModule so the probe is journaled.
func (d *Driver) EnableRecovery(j *recovery.StateJournal) {
	d.journal = j
}

// journalProbe records the probe as the first replayable configuration
// crossing: the same handler call the load made.
func (d *Driver) journalProbe() {
	if d.journal == nil {
		return
	}
	d.journal.Record(recovery.Entry{Key: "probe", Name: hProbe.Name(), Replay: d.probe})
}

// journalOpen records the interface bring-up (resource allocation, IRQ,
// device up); Stop removes it, so a recovery of a downed interface replays
// probe only.
func (d *Driver) journalOpen() {
	if d.journal == nil {
		return
	}
	d.journal.Record(recovery.Entry{Key: "ifup", Name: hOpen.Name(), Replay: d.open})
}

// RecoveryName implements recovery.Target.
func (d *Driver) RecoveryName() string { return "e1000" }

// BeginOutage implements recovery.Target: the net device holds TX frames
// (slow, not dead) and the watchdog stops crossing to the suspect decaf
// driver. Idempotent for retried restarts.
func (d *Driver) BeginOutage(ctx *kernel.Context) {
	d.recovering = true
	d.netdev.BeginRecovery(DefaultTxHoldLimit)
}

// TeardownForRecovery implements recovery.Target: drop the frames queued
// for the decaf data path, then release the kernel-side data-path resources
// directly. Every flush ended inside the call that made it, so no payload
// slot is held here. The decaf side is suspect, so the nuclear runtime
// tears down without crossings; the journal replay of ifup rebuilds
// everything.
func (d *Driver) TeardownForRecovery(ctx *kernel.Context) error {
	d.txTimer.Stop()
	d.txFlushArmed = false
	// Frames queued but never submitted are casualties of the crash.
	if n := len(d.txQueue); n > 0 {
		d.txQueue = nil
		d.Adapter.Stats.TxErrors += uint64(n)
	}
	d.nuc.release(ctx)
	return nil
}

// ResetDecafState implements recovery.Target: discard the decaf-side half,
// the probe results in the cells; the replayed probe writes them again. The
// kernel-side adapter, the authoritative configuration, is untouched.
func (d *Driver) ResetDecafState(ctx *kernel.Context) error {
	if d.rt.Mode != xpc.ModeDecaf {
		return nil
	}
	st := d.rt.SharedState()
	for _, cell := range probeCells {
		st.Store(cell, 0)
	}
	return nil
}

// ResumeFromRecovery implements recovery.Target: disarm the proxy and
// replay the held frames through the restarted driver.
func (d *Driver) ResumeFromRecovery(ctx *kernel.Context) (replayed, dropped uint64) {
	d.recovering = false
	rep, drp := d.netdev.EndRecovery(ctx)
	return uint64(rep), uint64(drp)
}

// FailStop implements recovery.Target: restart budget exhausted — the
// device goes explicitly dead. Held frames drop, the carrier goes off (so
// Transmit now errors), and the watchdog stops; d.recovering stays set so
// no further decaf crossings are attempted.
func (d *Driver) FailStop(ctx *kernel.Context) {
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	d.netdev.AbortRecovery()
	d.Adapter.LinkUp = false
	d.setLinkCell(false)
}
