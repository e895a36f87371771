package ens1371

import (
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
)

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
	d.record("probe", hProbe.Name()+"(config)", func(ctx *kernel.Context) error {
		return d.probe(ctx, flagPayload[true])
	})
}

// journalPCMOpen records the playback buffer allocation.
func (d *Driver) journalPCMOpen() {
	d.record("pcm/open", hPlaybackOpen.Name(), func(ctx *kernel.Context) error {
		if d.buf != 0 {
			return nil // buffer survived (kernel-side state)
		}
		return d.rt.Call(ctx, hPlaybackOpen)
	})
}

// journalHWParams records the stream configuration (rate, channels, period).
func (d *Driver) journalHWParams(rate, channels, periodFrames int) {
	d.record("pcm/params", hHWParams.Name(), func(ctx *kernel.Context) error {
		return d.hwParams(ctx, rate, channels, periodFrames)
	})
}

// journalTrigger records the DAC2 engine state.
func (d *Driver) journalTrigger(start bool) {
	d.record("pcm/trigger", hTrigger.Name(), func(ctx *kernel.Context) error {
		return d.rt.CallData(ctx, hTrigger, flagPayload[start])
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
