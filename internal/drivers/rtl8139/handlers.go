package rtl8139

import (
	"fmt"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/rtl8139hw"
	"decafdrivers/internal/kernel"
)

// eepromWords is the 93C46's size in 16-bit words.
const eepromWords = 32

// Shared state cells, registered at package init so parent and re-exec'd
// worker agree on the indices. Under a process-separated transport the decaf
// bodies write them from the worker's address space and the kernel side
// reads them through the same mapping.
var (
	// cellRxFrames is the decaf data path's frame count.
	cellRxFrames = registry.RegisterCell("rtl8139.decaf_rx_frames")
	// cellMAC (six bytes, little-endian) and cellEEPROM (one word a cell) are
	// what probe establishes; the kernel side adopts them into the adapter.
	cellMAC    = registry.RegisterCell("rtl8139.mac")
	cellEEPROM = func() (cells [eepromWords]registry.Cell) {
		for w := range cells {
			cells[w] = registry.RegisterCell(fmt.Sprintf("rtl8139.eeprom_%d", w))
		}
		return cells
	}()
)

// decafRxFrameCost is the user-level per-frame inspection cost in the decaf
// data path.
const decafRxFrameCost = 900 * time.Nanosecond

// hwErr raises the decaf driver's checked exception over a failed downcall.
func hwErr(what string, err error) error {
	return fmt.Errorf("%s: %s: %w", HWException, what, err)
}

// The downcalls the bodies make: each body names its kernel-side entry
// point by handle, and registerDowncalls binds this instance's target to it.
var (
	downResetChip     = registry.DeclareDowncall("rtl8139_reset_chip")
	downCfg9346Unlock = registry.DeclareDowncall("rtl8139_cfg9346_unlock")
	downCfg9346Lock   = registry.DeclareDowncall("rtl8139_cfg9346_lock")
	downReadEEPROM    = registry.DeclareDowncall("rtl8139_read_eeprom")
	downAllocBuffers  = registry.DeclareDowncall("rtl8139_alloc_buffers")
	downFreeBuffers   = registry.DeclareDowncall("rtl8139_free_buffers")
	downRequestIRQ    = registry.DeclareDowncall("request_irq")
	downFreeIRQ       = registry.DeclareDowncall("free_irq")
	downHWStart       = registry.DeclareDowncall("rtl8139_hw_start")
	downHWStop        = registry.DeclareDowncall("rtl8139_hw_stop")
)

// The decaf driver: every body is registered in the handler table, so a
// process-separated transport executes all of them in the worker process.
// They reach the chip and the kernel only through the scalar downcalls
// registerDowncalls installs. The kernel side crosses with the handles init
// assigns.
var hRxFrame, hProbe, hOpen, hClose *registry.Handler

//decaf:boundary
func init() {
	// rtl8139_rx_frame is the RX body in the decaf data path: user-level
	// inspection and accounting of one drained frame.
	hRxFrame = registry.Register("rtl8139_rx_frame", registry.Handler{
		Cost: decafRxFrameCost,
		Fn: func(c *registry.Ctx) error {
			c.State.Add(cellRxFrames, 1)
			return nil
		},
	})
	// rtl8139_probe identifies the chip and reads the MAC: the decaf-driver
	// body of rtl8139_init_board + read_eeprom.
	hProbe = registry.Register("rtl8139_probe", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if _, err := c.Downcall(downResetChip, 0); err != nil {
				return hwErr("reset", err)
			}
			// Unlock the 93C46 and walk every word, one downcall each. The
			// relock is issued unconditionally afterwards — a failed walk must
			// not leave the 93C46 unlocked.
			var words [eepromWords]uint64
			_, walkErr := c.Downcall(downCfg9346Unlock, 0)
			for w := 0; walkErr == nil && w < len(words); w++ {
				words[w], walkErr = c.Downcall(downReadEEPROM, uint64(w))
			}
			_, _ = c.Downcall(downCfg9346Lock, 0)
			if walkErr != nil {
				return hwErr("EEPROM walk failed", walkErr)
			}
			if words[0] != 0x8129 {
				return fmt.Errorf("%s: bad EEPROM signature %#x", HWException, words[0])
			}
			for w, cell := range cellEEPROM {
				c.State.Store(cell, words[w])
			}
			c.State.Store(cellMAC, words[7]|words[8]<<16|words[9]<<32)
			return nil
		},
	})
	// rtl8139_open is the decaf-driver body of rtl8139_open: buffers, IRQ,
	// chip start, with the buffers released again if the rest fails.
	hOpen = registry.Register("rtl8139_open", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			if _, err := c.Downcall(downAllocBuffers, 0); err != nil {
				return hwErr("buffer allocation", err)
			}
			_, err := c.Downcall(downRequestIRQ, 0)
			if err == nil {
				_, err = c.Downcall(downHWStart, 0)
			}
			if err != nil {
				_, _ = c.Downcall(downFreeBuffers, 0)
				return hwErr("interface start", err)
			}
			return nil
		},
	})
	// rtl8139_close tears the interface down. Best effort: a step that fails
	// must not keep the later ones from releasing what they hold.
	hClose = registry.Register("rtl8139_close", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, _ = c.Downcall(downHWStop, 0)
			_, _ = c.Downcall(downFreeIRQ, 0)
			_, _ = c.Downcall(downFreeBuffers, 0)
			return nil
		},
	})
}

// registerDowncalls binds the kernel-side targets of the bodies' downcalls:
// the nucleus entry points, each a scalar in and a scalar out. Per-Runtime,
// so each driver instance's bodies reach that instance's chip.
func (d *Driver) registerDowncalls() {
	// errno registers a target that takes nothing and answers success or
	// failure; void adapts an entry point that cannot fail.
	errno := func(down registry.Downcall, fn func(kctx *kernel.Context) error) {
		d.rt.BindDowncall(down, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			return 0, fn(kctx)
		})
	}
	void := func(fn func(kctx *kernel.Context)) func(*kernel.Context) error {
		return func(kctx *kernel.Context) error { fn(kctx); return nil }
	}
	errno(downResetChip, d.resetChip)
	errno(downCfg9346Unlock, void(func(*kernel.Context) { d.outb(rtl8139hw.Reg9346CR, 0xC0) }))
	errno(downCfg9346Lock, void(func(*kernel.Context) { d.outb(rtl8139hw.Reg9346CR, 0x00) }))
	d.rt.BindDowncall(downReadEEPROM, func(kctx *kernel.Context, w uint64) (uint64, error) {
		return uint64(d.readEEPROMWord(kctx, uint8(w))), nil
	})
	errno(downAllocBuffers, d.allocBuffers)
	errno(downFreeBuffers, void(d.freeBuffers))
	errno(downRequestIRQ, func(*kernel.Context) error {
		return d.kern.RequestIRQ(d.irq, "8139too", d.intr, d.Adapter)
	})
	errno(downFreeIRQ, func(*kernel.Context) error { return d.kern.FreeIRQ(d.irq, "8139too") })
	errno(downHWStart, void(d.startChip))
	errno(downHWStop, void(d.stopChip))
}

// probeCells unpacks what the probe body left in the shared state cells.
func (d *Driver) probeCells() (mac [6]byte, eeprom [eepromWords]uint16) {
	st := d.rt.SharedState()
	for w, cell := range cellEEPROM {
		eeprom[w] = uint16(st.Load(cell))
	}
	packed := st.Load(cellMAC)
	for i := range mac {
		mac[i] = byte(packed >> (8 * i))
	}
	return mac, eeprom
}

// adoptProbe copies what the probe body established into the
// kernel-resident adapter — the kernel's view of the (possibly remote)
// identification.
func (d *Driver) adoptProbe() {
	a := d.Adapter
	a.MAC, a.EEPROM = d.probeCells()
	a.LinkUp = true
}

// probe crosses into the decaf driver's probe body and adopts its results.
func (d *Driver) probe(ctx *kernel.Context) error {
	if err := d.rt.Call(ctx, hProbe); err != nil {
		return err
	}
	d.adoptProbe()
	return nil
}

// open crosses into the decaf driver's open body and raises the carrier.
func (d *Driver) open(ctx *kernel.Context) error {
	if err := d.rt.Call(ctx, hOpen); err != nil {
		return err
	}
	if d.dev.LinkUp() {
		d.netdev.CarrierOn()
	}
	return nil
}
