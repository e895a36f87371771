package ens1371

import (
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// EnableRecovery attaches the shadow-driver state journal and arms the
// driver for supervision: the probe's hardware configuration and the PCM
// stream state (open, hw_params, trigger) are journaled for replay, and the
// PCM ops act as the kernel-facing proxy during an outage (journal intent,
// defer the crossing, report success — slow, not dead). Call before
// LoadModule so the probe is journaled.
func (d *Driver) EnableRecovery(j *recovery.StateJournal) {
	d.journal = j
}

// DeferredOps reports PCM operations absorbed by the recovery proxy
// (journaled and deferred to replay instead of crossing).
func (d *Driver) DeferredOps() uint64 { return d.deferredOps }

// record journals one replayable crossing under key.
func (d *Driver) record(key, name string, replay func(ctx *kernel.Context) error) {
	if d.journal != nil {
		d.journal.Record(recovery.Entry{Key: key, Name: name, Replay: replay})
	}
}

// journalProbe records the device-level half of probe (SRC RAM, codec,
// mixer registers). Kernel-object registrations — controls, the card, the
// IRQ — persist across a restart and are not replayed.
func (d *Driver) journalProbe() {
	d.record("probe", "snd_ens1371_probe(config)", func(ctx *kernel.Context) error {
		return d.probe(ctx, flagPayload[true])
	})
}

// journalPCMOpen records the playback buffer allocation.
func (d *Driver) journalPCMOpen() {
	d.record("pcm/open", "snd_ens1371_playback_open", func(ctx *kernel.Context) error {
		if d.buf != 0 {
			return nil // buffer survived (kernel-side state)
		}
		return d.rt.UpcallHandler(ctx, "snd_ens1371_playback_open")
	})
}

// journalHWParams records the stream configuration (rate, channels, period).
func (d *Driver) journalHWParams(rate, channels, periodFrames int) {
	d.record("pcm/params", "snd_ens1371_hw_params", func(ctx *kernel.Context) error {
		return d.hwParams(ctx, rate, channels, periodFrames)
	})
}

// journalTrigger records the DAC2 engine state.
func (d *Driver) journalTrigger(start bool) {
	d.record("pcm/trigger", "snd_ens1371_trigger", func(ctx *kernel.Context) error {
		return d.rt.UpcallHandlerData(ctx, "snd_ens1371_trigger", flagPayload[start])
	})
}

// unjournalStream drops the stream's journal entries on close.
func (d *Driver) unjournalStream() {
	if d.journal == nil {
		return
	}
	d.journal.Remove("pcm/trigger")
	d.journal.Remove("pcm/params")
	d.journal.Remove("pcm/open")
}

// RecoveryName implements recovery.Target.
func (d *Driver) RecoveryName() string { return "ens1371" }

// BeginOutage implements recovery.Target: PCM ops defer to the journal
// until resume. Idempotent for retried restarts.
func (d *Driver) BeginOutage(ctx *kernel.Context) {
	d.recovering = true
}

// TeardownForRecovery implements recovery.Target: silence the engine and
// drain in-flight crossings. The playback buffer, IRQ registration, card and
// mixer controls are kernel-side state and survive; the journal replay
// reprograms the device.
func (d *Driver) TeardownForRecovery(ctx *kernel.Context) error {
	d.stopDAC2(ctx)
	return d.rt.DrainCrossings(ctx)
}

// ResetDecafState implements recovery.Target: the codec-vendor cell the
// decaf driver's probe wrote is cleared (it outlives a worker process, so
// the journal replay must be what fills it again); the kernel-side chip,
// card and controls survive.
func (d *Driver) ResetDecafState(ctx *kernel.Context) error {
	if d.rt.Mode == xpc.ModeDecaf {
		d.rt.SharedState().Store(cellCodecVendor, 0)
	}
	return nil
}

// ResumeFromRecovery implements recovery.Target: the deferred-op count is
// the held work the proxy absorbed (the journal replay already applied it).
func (d *Driver) ResumeFromRecovery(ctx *kernel.Context) (replayed, dropped uint64) {
	d.recovering = false
	n := d.deferredOps
	d.deferredOps = 0
	return n, 0
}

// FailStop implements recovery.Target: the engine goes silent and every
// further PCM op returns an explicit error — the card is dead, not slow,
// and callers learn it.
func (d *Driver) FailStop(ctx *kernel.Context) {
	d.failed = true
	d.stopDAC2(ctx)
}
