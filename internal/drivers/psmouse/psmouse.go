// Package psmouse is the Decaf conversion of the PS/2 mouse driver. Per the
// paper (§4.1), "most of the user-level code was device-specific.
// Consequently, we implemented in Java only those functions that were
// actually called for our mouse device": protocol detection and device
// initialization live in the decaf driver — handler bodies (handlers.go)
// that reach the serio port only through the psmouse_cmd downcall and report
// through shared state cells; the byte-stream interrupt handler and packet
// parser stay in the nucleus.
package psmouse

import (
	"fmt"
	"time"

	"decafdrivers/internal/hw/ps2hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/kinput"
	"decafdrivers/internal/xpc"
)

// ProtoException is the decaf driver's checked exception class.
const ProtoException = "PsmouseProtocolException"

// Per-report CPU cost in the interrupt path.
const reportCost = 2 * time.Microsecond

// cmdTimeoutBytes bounds how many response bytes a command waits for.
const cmdTimeoutBytes = 4

// State is the kernel-resident psmouse structure. The decaf driver never
// sees it: what detection establishes arrives through the shared state
// cells and is adopted here (adoptDetection).
type State struct {
	Name       string
	Protocol   string
	MouseID    int32
	Rate       int32
	Resolution int32

	// Parser state.
	PktBytes  [4]byte
	PktLen    int32
	Reports   uint64
	IntrCount uint64
}

// Config configures a driver instance.
type Config struct {
	Mode xpc.Mode
	IRQ  int
}

// Driver is one bound psmouse instance.
type Driver struct {
	kern *kernel.Kernel
	in   *kinput.Subsystem
	port *kinput.SerioPort
	rt   *xpc.Runtime
	irq  int

	State *State

	input *kinput.Device

	// command/response plumbing (nucleus).
	respBuf []byte
	inCmd   bool
}

// New binds the driver to a serio port.
func New(k *kernel.Kernel, in *kinput.Subsystem, port *kinput.SerioPort, cfg Config) *Driver {
	d := &Driver{
		kern: k, in: in, port: port, irq: cfg.IRQ,
		State: &State{},
	}
	d.rt = xpc.NewRuntime(k, "psmouse", cfg.Mode, nil)
	d.rt.DisableIRQs = []int{cfg.IRQ}
	port.ConnectDriver(d.receiveByte)
	d.registerDowncalls()
	return d
}

// Runtime exposes the XPC runtime.
func (d *Driver) Runtime() *xpc.Runtime { return d.rt }

// InputDevice returns the registered input device (after module init).
func (d *Driver) InputDevice() *kinput.Device { return d.input }

// --- nucleus ---

// receiveByte is the serio interrupt path: every byte from the mouse lands
// here in (conceptually) IRQ context. During command execution bytes are
// responses; in stream mode they are report bytes parsed into input events.
func (d *Driver) receiveByte(b byte) {
	s := d.State
	s.IntrCount++
	if d.inCmd {
		d.respBuf = append(d.respBuf, b)
		return
	}
	s.PktBytes[s.PktLen] = b
	s.PktLen++
	if s.PktLen < 3 {
		return
	}
	s.PktLen = 0
	d.processPacket(s.PktBytes[0], s.PktBytes[1], s.PktBytes[2])
}

// processPacket decodes one three-byte report (nucleus data path).
func (d *Driver) processPacket(flags, dxB, dyB byte) {
	if d.input == nil {
		return
	}
	dx, dy := int(int8(dxB)), int(int8(dyB))
	d.State.Reports++
	d.input.ReportRel("REL_X", dx)
	d.input.ReportRel("REL_Y", dy)
	d.input.ReportKey("BTN_LEFT", int(flags&0x01))
	d.input.ReportKey("BTN_RIGHT", int(flags>>1&0x01))
	d.input.Sync()
}

// ps2Command is a kernel entry point: send a command byte (plus optional
// argument) and collect the expected response bytes. Serio access must be
// serialized in the kernel.
func (d *Driver) ps2Command(ctx *kernel.Context, cmd byte, arg *byte, respLen int) ([]byte, error) {
	d.inCmd = true
	d.respBuf = nil
	defer func() { d.inCmd = false }()

	if err := d.port.Write(cmd); err != nil {
		return nil, err
	}
	// Command settle times: a reset runs the mouse's self-test (~20 ms);
	// other commands take about a millisecond on the 12 kHz serial link.
	if cmd == ps2hw.CmdReset {
		ctx.MSleep(20)
	} else {
		ctx.MSleep(1)
	}
	if len(d.respBuf) == 0 || d.respBuf[0] != ps2hw.RespAck {
		return nil, fmt.Errorf("psmouse: command %#x not acknowledged", cmd)
	}
	if arg != nil {
		d.respBuf = nil
		if err := d.port.Write(*arg); err != nil {
			return nil, err
		}
		if len(d.respBuf) == 0 || d.respBuf[0] != ps2hw.RespAck {
			return nil, fmt.Errorf("psmouse: argument %#x not acknowledged", *arg)
		}
	}
	resp := d.respBuf
	if len(resp) > 0 {
		resp = resp[1:] // strip the ACK
	}
	if len(resp) < respLen {
		return nil, fmt.Errorf("psmouse: command %#x returned %d bytes, want %d", cmd, len(resp), respLen)
	}
	if respLen > cmdTimeoutBytes {
		respLen = cmdTimeoutBytes
	}
	return resp[:respLen], nil
}

// --- module glue ---

// Module adapts the driver to the module loader.
func (d *Driver) Module() kernel.Module { return (*psmouseModule)(d) }

type psmouseModule Driver

// ModuleName implements kernel.Module.
func (m *psmouseModule) ModuleName() string { return "psmouse" }

// Init probes the protocol through the decaf driver and registers the input
// device. Both halves of the probe run through the handler table — in the
// worker's address space under a process-separated transport — and detection
// reports through the shared state cells, adopted into the kernel state here.
func (m *psmouseModule) Init(ctx *kernel.Context) error {
	d := (*Driver)(m)
	if err := d.rt.UpcallHandler(ctx, "psmouse_probe"); err != nil {
		return fmt.Errorf("psmouse: probe: %w", err)
	}
	if err := d.rt.UpcallHandler(ctx, "psmouse_detect"); err != nil {
		return fmt.Errorf("psmouse: detect: %w", err)
	}
	d.adoptDetection()
	dev, err := d.in.Register(d.State.Name)
	if err != nil {
		return err
	}
	d.input = dev
	return nil
}

// Exit unregisters the input device.
func (m *psmouseModule) Exit(ctx *kernel.Context) {
	d := (*Driver)(m)
	if d.input != nil {
		_ = d.in.Unregister(d.input.Name)
		d.input = nil
	}
}

// ChargeReport lets the workload charge the per-report interrupt cost (the
// serio path here is callback-based rather than context-based).
func (d *Driver) ChargeReport(ctx *kernel.Context) {
	ctx.Charge(reportCost)
}
