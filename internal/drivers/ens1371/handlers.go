package ens1371

import (
	"encoding/binary"
	"fmt"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/es1371hw"
	"decafdrivers/internal/kernel"
)

// ctlNames are the mixer controls probe registers with the sound core. The
// table is package-level, so the worker image holds the same one and the
// snd_ctl_add downcall carries only an index into it.
var ctlNames = [...]string{
	"Master Playback Volume", "Master Playback Switch",
	"PCM Playback Volume", "PCM Playback Switch",
	"CD Playback Volume", "CD Playback Switch",
	"Line Playback Volume", "Line Playback Switch",
	"Mic Playback Volume", "Mic Playback Switch",
	"Aux Playback Volume", "Capture Volume", "Capture Switch",
	"PC Speaker Playback Volume", "Phone Playback Volume",
	"Video Playback Volume", "Mono Playback Volume", "3D Control - Switch",
}

// Shared state cells, registered at package init so parent and re-exec'd
// worker agree on the indices. The decaf bodies write them from whichever
// process they execute in.
var (
	// cellRunning is the DAC2 engine state the trigger body records.
	cellRunning = registry.RegisterCell("ens1371.dac2_running")
	// cellCodecVendor is the AC'97 vendor id probe reads; the kernel side
	// adopts it into Chip.
	cellCodecVendor = registry.RegisterCell("ens1371.codec_vendor")
)

// The downcalls the bodies make: each body names its kernel-side entry
// point by handle, and registerDowncalls binds this instance's target to it.
var (
	downSRCWrite     = registry.DeclareDowncall("snd_es1371_src_write")
	downAC97Write    = registry.DeclareDowncall("snd_ac97_write")
	downAC97Read     = registry.DeclareDowncall("snd_ac97_read")
	downCtlAdd       = registry.DeclareDowncall("snd_ctl_add")
	downCardRegister = registry.DeclareDowncall("snd_card_register")
	downDMAAlloc     = registry.DeclareDowncall("snd_dma_alloc")
	downDMAFree      = registry.DeclareDowncall("snd_dma_free")
	downResetPointer = registry.DeclareDowncall("snd_es1371_reset_pointer")
	downDAC2Ctrl     = registry.DeclareDowncall("snd_es1371_dac2_ctrl")
)

// triggerBodyCost is the user-level work of one trigger pass, excluding the
// engine-control downcall.
const triggerBodyCost = 200 * time.Nanosecond

// paramsLen is the size of the hw_params payload: rate, channels and period
// frames, each a little-endian uint32.
const paramsLen = 12

// flagPayload is the one-byte payload carrying a body's flag: a trigger's
// start, a probe's replay mark (a replay reprograms the chip only, because
// the controls and the card are kernel objects that survive a restart).
var flagPayload = map[bool][]byte{false: {0}, true: {1}}

// hwErr raises the decaf driver's checked exception over a failed downcall.
func hwErr(what string, err error) error {
	return fmt.Errorf("%s: %s: %w", HWException, what, err)
}

// down issues one downcall per arg, stopping at the first failure.
func down(c *registry.Ctx, d registry.Downcall, args ...uint64) error {
	for _, arg := range args {
		if _, err := c.Downcall(d, arg); err != nil {
			return hwErr(d.Name(), err)
		}
	}
	return nil
}

// initChipConfig programs the device-level configuration — SRC RAM, AC'97
// codec bring-up, mixer register file — one register per downcall: the
// replayable half of probe.
func initChipConfig(c *registry.Ctx) error {
	for addr := uint64(0); addr < es1371hw.SRCRAMSize; addr++ {
		if err := down(c, downSRCWrite, addr<<16|0x8000|addr); err != nil {
			return err
		}
	}
	// AC'97 codec bring-up: reset, vendor id, then the mixer register file.
	if err := down(c, downAC97Write, 0x00<<16); err != nil {
		return err
	}
	var vendor uint64
	for _, addr := range []uint64{0x7C, 0x7E} {
		v, err := c.Downcall(downAC97Read, addr)
		if err != nil {
			return hwErr("ac97 vendor read", err)
		}
		vendor = vendor<<16 | v
	}
	if vendor == 0 {
		return fmt.Errorf("%s: no AC'97 codec detected", HWException)
	}
	for reg := uint64(0x02); reg <= 0x38; reg += 2 {
		if err := down(c, downAC97Write, reg<<16|0x0808); err != nil {
			return err
		}
	}
	c.State.Store(cellCodecVendor, vendor)
	return nil
}

// flag reads a one-byte boolean payload.
func flag(c *registry.Ctx) bool { return len(c.Data) > 0 && c.Data[0] != 0 }

// The decaf driver: every body is registered in the handler table, so a
// process-separated transport executes all of them in the worker process.
// They reach the chip and the sound core only through the scalar downcalls
// registerDowncalls installs. The kernel side crosses with the handles init
// assigns.
var hProbe, hHWParams, hTrigger, hPlaybackOpen, hPrepare, hPlaybackClose *registry.Handler

//decaf:boundary
func init() {
	// snd_ens1371_probe initializes the SRC and codec — the crossing-heavy
	// path behind Table 3's 237 init crossings — then registers the mixer
	// controls and the card, unless the payload flags a journal replay.
	hProbe = registry.Register("snd_ens1371_probe", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if err := initChipConfig(c); err != nil {
				return err
			}
			if !flag(c) {
				for i := range ctlNames {
					if err := down(c, downCtlAdd, uint64(i)); err != nil {
						return err
					}
				}
				if err := down(c, downCardRegister, 0); err != nil {
					return err
				}
			}
			return nil
		},
	})
	// snd_ens1371_hw_params validates the stream configuration and sets the
	// DAC2 rate through the SRC (two register downcalls).
	hHWParams = registry.Register("snd_ens1371_hw_params", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if len(c.Data) != paramsLen {
				return fmt.Errorf("%s: hw_params payload of %d bytes", HWException, len(c.Data))
			}
			rate := uint64(binary.LittleEndian.Uint32(c.Data))
			if rate != 44100 && rate != 48000 && rate != 22050 {
				return fmt.Errorf("%s: unsupported rate %d", HWException, rate)
			}
			return down(c, downSRCWrite, 0x70<<16|rate, 0x71<<16|rate/2)
		},
	})
	// snd_ens1371_trigger records the requested engine state and programs
	// the DAC2 engine; the payload flags start.
	hTrigger = registry.Register("snd_ens1371_trigger", registry.Handler{
		Cost: triggerBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			var v uint64
			if flag(c) {
				v = 1
			}
			c.State.Store(cellRunning, v)
			return down(c, downDAC2Ctrl, v)
		},
	})
	// The open, prepare and close bodies are one downcall each. A slice, not
	// a map: registration order numbers the table, so it must be the same
	// in every exec of the binary.
	for _, p := range [...]struct {
		h    **registry.Handler
		name string
		down registry.Downcall
	}{
		{&hPlaybackOpen, "snd_ens1371_playback_open", downDMAAlloc},
		{&hPrepare, "snd_ens1371_prepare", downResetPointer},
		{&hPlaybackClose, "snd_ens1371_playback_close", downDMAFree},
	} {
		*p.h = registry.Register(p.name, registry.Handler{
			Down: true,
			Fn:   func(c *registry.Ctx) error { return down(c, p.down, 0) },
		})
	}
}

// registerDowncalls binds the kernel-side targets of the bodies' downcalls:
// the nucleus entry points, each a scalar in and a scalar out. Per-Runtime,
// so each driver instance's bodies reach that instance's chip. The
// arguments come from the untrusted side and are checked here.
func (d *Driver) registerDowncalls() {
	errno := func(down registry.Downcall, fn func(kctx *kernel.Context) error) {
		d.rt.BindDowncall(down, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			return 0, fn(kctx)
		})
	}
	// snd_es1371_src_write takes addr<<16 | value.
	d.rt.BindDowncall(downSRCWrite, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if addr := arg >> 16; addr >= es1371hw.SRCRAMSize {
			return 0, fmt.Errorf("ens1371: SRC address %#x out of range", addr)
		}
		d.srcWrite(kctx, uint32(arg>>16), uint16(arg))
		return 0, nil
	})
	// snd_ac97_write takes addr<<16 | value. Writing the reset register
	// resets the codec, and the write waits out its 750 ms ready time here,
	// as the C driver sleeps: a body in the worker has no virtual clock.
	d.rt.BindDowncall(downAC97Write, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		addr := uint32(arg>>16) & 0x7E
		d.codecWrite(kctx, addr, uint16(arg))
		if addr == 0 {
			kctx.MSleep(750)
		}
		return 0, nil
	})
	d.rt.BindDowncall(downAC97Read, func(kctx *kernel.Context, addr uint64) (uint64, error) {
		v, err := d.codecRead(kctx, uint32(addr)&0x7E)
		return uint64(v), err
	})
	// snd_ctl_add takes an index into ctlNames.
	d.rt.BindDowncall(downCtlAdd, func(kctx *kernel.Context, i uint64) (uint64, error) {
		if i >= uint64(len(ctlNames)) {
			return 0, fmt.Errorf("ens1371: no mixer control %d", i)
		}
		d.card.AddControl()
		return 0, nil
	})
	errno(downCardRegister, func(*kernel.Context) error { return d.snd.Register(d.card) })
	errno(downDMAAlloc, d.allocBuffer)
	errno(downDMAFree, func(kctx *kernel.Context) error { d.freeBuffer(kctx); return nil })
	errno(downResetPointer, func(*kernel.Context) error { d.Chip.HWPos = 0; return nil })
	d.rt.BindDowncall(downDAC2Ctrl, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		d.Chip.Running = arg != 0
		if d.Chip.Running {
			d.startDAC2(kctx)
		} else {
			d.stopDAC2(kctx)
		}
		return 0, nil
	})
}

// probe crosses into the decaf driver's probe body and adopts its results;
// data is nil at load and flagPayload[true] from the journal.
func (d *Driver) probe(ctx *kernel.Context, data []byte) error {
	if err := d.rt.CallData(ctx, hProbe, data); err != nil {
		return err
	}
	return d.adoptProbe()
}

// adoptProbe copies what the probe body established into the
// kernel-resident chip. The vendor cell comes from memory the worker
// writes, and the AC'97 vendor id is 32 bits: a wider value is refused
// before anything is adopted.
func (d *Driver) adoptProbe() error {
	vendor := d.rt.SharedState().Load(cellCodecVendor)
	if vendor > 0xFFFFFFFF {
		return fmt.Errorf("ens1371: probe reported codec vendor %#x, wider than the AC'97 vendor id", vendor)
	}
	d.Chip.Name = "ens1371"
	d.Chip.CodecVendor = uint32(vendor)
	d.Chip.MixerCtls = int32(len(ctlNames))
	return nil
}

// hwParams crosses into the decaf driver's hw_params body with the stream
// configuration as its payload and, once the body accepts it, records the
// configuration kernel-side.
func (d *Driver) hwParams(ctx *kernel.Context, rate, channels, periodFrames int) error {
	var p [paramsLen]byte
	binary.LittleEndian.PutUint32(p[0:], uint32(rate))
	binary.LittleEndian.PutUint32(p[4:], uint32(channels))
	binary.LittleEndian.PutUint32(p[8:], uint32(periodFrames))
	if err := d.rt.CallData(ctx, hHWParams, p[:]); err != nil {
		return err
	}
	d.Chip.Rate, d.Chip.Channels, d.Chip.PeriodLen = int32(rate), int32(channels), int32(periodFrames)
	return nil
}
