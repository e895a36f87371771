package psmouse

import (
	"fmt"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw/ps2hw"
	"decafdrivers/internal/kernel"
)

// Shared state cells for the detection results: the detect body runs in the
// worker under a process-separated transport, so its findings travel back
// through the shared cells rather than struct fields.
var (
	cellMouseID    = registry.RegisterCell("psmouse.mouse_id")
	cellRate       = registry.RegisterCell("psmouse.rate")
	cellResolution = registry.RegisterCell("psmouse.resolution")

	// downCmd is the serio command downcall both bodies make.
	downCmd = registry.DeclareDowncall("psmouse_cmd")
)

// detectBodyCost is the user-level work of the detection pass, excluding its
// serio command downcalls (which dominate).
const detectBodyCost = 500 * time.Nanosecond

// psCmd issues one PS/2 command through the packed psmouse_cmd downcall:
// the command byte, optional argument, and expected response length travel
// in one scalar (cmd<<24 | hasArg<<16 | arg<<8 | respLen), and up to four
// response bytes come back packed little-endian in the result — the
// serialized command surface process separation forces on the serio path.
func psCmd(c *registry.Ctx, cmd byte, arg *byte, respLen int) (uint64, error) {
	req := uint64(cmd)<<24 | uint64(respLen&0xFF)
	if arg != nil {
		req |= 1<<16 | uint64(*arg)<<8
	}
	return c.Downcall(downCmd, req)
}

// The decaf driver is two bodies, registered in the handler table so a
// process-separated transport executes them in the worker. psmouse_probe is
// the reset half of probe: reset the mouse and verify its self-test, then
// make sure stream mode is off before detection. psmouse_detect is the
// device-interrogation half: protocol detection (the IntelliMouse rate
// knock), rate/resolution programming, and reporting enable. The kernel
// side crosses with the handles init assigns.
var hProbe, hDetect *registry.Handler

//decaf:boundary
func init() {
	hProbe = registry.Register("psmouse_probe", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			// Reset: expect self-test OK + id.
			resp, err := psCmd(c, ps2hw.CmdReset, nil, 2)
			if err != nil {
				return err
			}
			if byte(resp) != ps2hw.RespSelfTestOK {
				return fmt.Errorf("%s: self-test failed: %#x", ProtoException, byte(resp))
			}
			// Make sure stream mode is off during detection.
			_, err = psCmd(c, ps2hw.CmdDisable, nil, 0)
			return err
		},
	})
	hDetect = registry.Register("psmouse_detect", registry.Handler{
		Cost: detectBodyCost,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			getID := func() (byte, error) {
				r, err := psCmd(c, ps2hw.CmdGetID, nil, 1)
				return byte(r), err
			}
			setRate := func(rate byte) error {
				_, err := psCmd(c, ps2hw.CmdSetRate, &rate, 0)
				return err
			}

			// Baseline identity.
			id, err := getID()
			if err != nil {
				return err
			}

			// IntelliMouse detection: the 200/100/80 sample-rate knock.
			for _, rate := range []byte{200, 100, 80} {
				if err := setRate(rate); err != nil {
					return err
				}
			}
			if id, err = getID(); err != nil {
				return err
			}

			// IntelliMouse Explorer detection: the 200/200/80 knock (a
			// further protocol probe the real driver always attempts).
			for _, rate := range []byte{200, 200, 80} {
				if err := setRate(rate); err != nil {
					return err
				}
			}
			exID, err := getID()
			if err != nil {
				return err
			}
			if exID > id {
				id = exID
			}
			c.State.Store(cellMouseID, uint64(id))

			// Operating parameters: the real driver programs them once
			// during detection and again in psmouse_initialize.
			for i := 0; i < 2; i++ {
				if err := setRate(100); err != nil {
					return err
				}
				c.State.Store(cellRate, 100)
				res := byte(3) // 8 counts/mm
				if _, err := psCmd(c, ps2hw.CmdSetResolution, &res, 0); err != nil {
					return err
				}
				c.State.Store(cellResolution, uint64(res))
			}

			// Final identity confirmation after programming.
			if _, err := getID(); err != nil {
				return err
			}

			// Enable stream mode.
			_, err = psCmd(c, ps2hw.CmdEnable, nil, 0)
			return err
		},
	})
}

// registerDowncalls installs the kernel-side serio command target the decaf
// bodies name; per-Runtime, so each driver instance's handlers reach its
// port.
func (d *Driver) registerDowncalls() {
	d.rt.BindDowncall(downCmd, func(kctx *kernel.Context, req uint64) (uint64, error) {
		cmd := byte(req >> 24)
		var argp *byte
		if req>>16&1 != 0 {
			a := byte(req >> 8)
			argp = &a
		}
		respLen := int(req & 0xFF)
		resp, err := d.ps2Command(kctx, cmd, argp, respLen)
		if err != nil {
			return 0, err
		}
		var packed uint64
		for i, b := range resp {
			if i >= cmdTimeoutBytes {
				break
			}
			packed |= uint64(b) << (8 * i)
		}
		return packed, nil
	})
}

// adoptDetection copies the detect handler's cell results into the kernel
// state structure and derives the protocol name — the kernel-resident view
// of what the (possibly remote) detection established.
func (d *Driver) adoptDetection() {
	st := d.rt.SharedState()
	d.State.MouseID = int32(st.Load(cellMouseID))
	d.State.Rate = int32(st.Load(cellRate))
	d.State.Resolution = int32(st.Load(cellResolution))
	if byte(d.State.MouseID) == ps2hw.IDIntelliMouse {
		d.State.Protocol = "ImPS/2"
	} else {
		d.State.Protocol = "PS/2"
	}
	d.State.Name = "psmouse"
}
