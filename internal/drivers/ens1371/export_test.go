package ens1371

import (
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xpc"
)

// The recovery.Target half of the driver. No deployment supervises ens1371
// (the workload testbed supervises the two NIC drivers only), so only this
// package's tests arm it: they set Driver.journal before LoadModule, which
// turns on the PCM-op proxy and journal in recovery.go, and hand the driver
// to a recovery.Supervisor through these methods.

// RecoveryName implements recovery.Target.
func (d *Driver) RecoveryName() string { return "ens1371" }

// BeginOutage implements recovery.Target: PCM ops defer to the journal
// until resume. Idempotent for retried restarts.
func (d *Driver) BeginOutage(ctx *kernel.Context) {
	d.recovering = true
}

// TeardownForRecovery implements recovery.Target: silence the engine. The
// playback buffer, IRQ registration, card and mixer controls are
// kernel-side state and survive; the journal replay reprograms the device.
func (d *Driver) TeardownForRecovery(ctx *kernel.Context) error {
	d.stopDAC2(ctx)
	return nil
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

// ResumeFromRecovery implements recovery.Target: the proxy holds no work
// of its own, because every op it deferred went into the journal, whose
// replay already applied it.
func (d *Driver) ResumeFromRecovery(ctx *kernel.Context) (replayed, dropped uint64) {
	d.recovering = false
	return 0, 0
}

// FailStop implements recovery.Target: the engine goes silent and every
// further PCM op returns an explicit error — the card is dead, not slow,
// and callers learn it.
func (d *Driver) FailStop(ctx *kernel.Context) {
	d.failed = true
	d.stopDAC2(ctx)
}
