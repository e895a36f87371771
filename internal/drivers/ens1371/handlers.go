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
func down(c *registry.Ctx, name string, args ...uint64) error {
	for _, arg := range args {
		if _, err := c.Downcall(name, arg); err != nil {
			return hwErr(name, err)
		}
	}
	return nil
}

// initChipConfig programs the device-level configuration — SRC RAM, AC'97
// codec bring-up, mixer register file — one register per downcall: the
// replayable half of probe.
func initChipConfig(c *registry.Ctx) error {
	for addr := uint64(0); addr < es1371hw.SRCRAMSize; addr++ {
		if err := down(c, "snd_es1371_src_write", addr<<16|0x8000|addr); err != nil {
			return err
		}
	}
	// AC'97 codec bring-up: reset, vendor id, then the mixer register file.
	if err := down(c, "snd_ac97_write", 0x00<<16); err != nil {
		return err
	}
	var vendor uint64
	for _, addr := range []uint64{0x7C, 0x7E} {
		v, err := c.Downcall("snd_ac97_read", addr)
		if err != nil {
			return hwErr("ac97 vendor read", err)
		}
		vendor = vendor<<16 | v
	}
	if vendor == 0 {
		return fmt.Errorf("%s: no AC'97 codec detected", HWException)
	}
	for reg := uint64(0x02); reg <= 0x38; reg += 2 {
		if err := down(c, "snd_ac97_write", reg<<16|0x0808); err != nil {
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
// registerDowncalls installs.
//
//decaf:boundary
func init() {
	// snd_ens1371_probe initializes the SRC and codec — the crossing-heavy
	// path behind Table 3's 237 init crossings — then registers the mixer
	// controls and the card, unless the payload flags a journal replay.
	registry.Register("snd_ens1371_probe", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if err := initChipConfig(c); err != nil {
				return err
			}
			if !flag(c) {
				for i := range ctlNames {
					if err := down(c, "snd_ctl_add", uint64(i)); err != nil {
						return err
					}
				}
				if err := down(c, "snd_card_register", 0); err != nil {
					return err
				}
			}
			return nil
		},
	})
	// snd_ens1371_hw_params validates the stream configuration and sets the
	// DAC2 rate through the SRC (two register downcalls).
	registry.Register("snd_ens1371_hw_params", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if len(c.Data) != paramsLen {
				return fmt.Errorf("%s: hw_params payload of %d bytes", HWException, len(c.Data))
			}
			rate := uint64(binary.LittleEndian.Uint32(c.Data))
			if rate != 44100 && rate != 48000 && rate != 22050 {
				return fmt.Errorf("%s: unsupported rate %d", HWException, rate)
			}
			return down(c, "snd_es1371_src_write", 0x70<<16|rate, 0x71<<16|rate/2)
		},
	})
	// snd_ens1371_trigger records the requested engine state and programs
	// the DAC2 engine; the payload flags start.
	registry.Register("snd_ens1371_trigger", registry.Handler{
		Cost: triggerBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			var v uint64
			if flag(c) {
				v = 1
			}
			c.State.Store(cellRunning, v)
			return down(c, "snd_es1371_dac2_ctrl", v)
		},
	})
	// The open, prepare and close bodies are one downcall each.
	for body, target := range map[string]string{
		"snd_ens1371_playback_open":  "snd_dma_alloc",
		"snd_ens1371_prepare":        "snd_es1371_reset_pointer",
		"snd_ens1371_playback_close": "snd_dma_free",
	} {
		registry.Register(body, registry.Handler{
			Down: true,
			Fn:   func(c *registry.Ctx) error { return down(c, target, 0) },
		})
	}
}

// registerDowncalls installs the kernel-side targets the decaf bodies name:
// the nucleus entry points, each a scalar in and a scalar out. Per-Runtime,
// so each driver instance's bodies reach that instance's chip. The
// arguments come from the untrusted side and are checked here.
func (d *Driver) registerDowncalls() {
	errno := func(name string, fn func(kctx *kernel.Context) error) {
		d.rt.RegisterDowncall(name, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			return 0, fn(kctx)
		})
	}
	// snd_es1371_src_write takes addr<<16 | value.
	d.rt.RegisterDowncall("snd_es1371_src_write", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if addr := arg >> 16; addr >= es1371hw.SRCRAMSize {
			return 0, fmt.Errorf("ens1371: SRC address %#x out of range", addr)
		}
		d.srcWrite(kctx, uint32(arg>>16), uint16(arg))
		return 0, nil
	})
	// snd_ac97_write takes addr<<16 | value. Writing the reset register
	// resets the codec, and the write waits out its 750 ms ready time here,
	// as the C driver sleeps: a body in the worker has no virtual clock.
	d.rt.RegisterDowncall("snd_ac97_write", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		addr := uint32(arg>>16) & 0x7E
		d.codecWrite(kctx, addr, uint16(arg))
		if addr == 0 {
			kctx.MSleep(750)
		}
		return 0, nil
	})
	d.rt.RegisterDowncall("snd_ac97_read", func(kctx *kernel.Context, addr uint64) (uint64, error) {
		v, err := d.codecRead(kctx, uint32(addr)&0x7E)
		return uint64(v), err
	})
	// snd_ctl_add takes an index into ctlNames.
	d.rt.RegisterDowncall("snd_ctl_add", func(kctx *kernel.Context, i uint64) (uint64, error) {
		if i >= uint64(len(ctlNames)) {
			return 0, fmt.Errorf("ens1371: no mixer control %d", i)
		}
		d.card.AddControl(ctlNames[i], 0x0808)
		return 0, nil
	})
	errno("snd_card_register", func(*kernel.Context) error { return d.snd.Register(d.card) })
	errno("snd_dma_alloc", d.allocBuffer)
	errno("snd_dma_free", func(kctx *kernel.Context) error { d.freeBuffer(kctx); return nil })
	errno("snd_es1371_reset_pointer", func(*kernel.Context) error { d.Chip.HWPos = 0; return nil })
	d.rt.RegisterDowncall("snd_es1371_dac2_ctrl", func(kctx *kernel.Context, arg uint64) (uint64, error) {
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
	if err := d.rt.UpcallHandlerData(ctx, "snd_ens1371_probe", data); err != nil {
		return err
	}
	d.Chip.Name = "ens1371"
	d.Chip.CodecVendor = uint32(d.rt.SharedState().Load(cellCodecVendor))
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
	if err := d.rt.UpcallHandlerData(ctx, "snd_ens1371_hw_params", p[:]); err != nil {
		return err
	}
	d.Chip.Rate, d.Chip.Channels, d.Chip.PeriodLen = int32(rate), int32(channels), int32(periodFrames)
	return nil
}

// DAC2Running reads the engine state from the shared state cells.
func (d *Driver) DAC2Running() bool { return d.rt.SharedState().Load(cellRunning) != 0 }
