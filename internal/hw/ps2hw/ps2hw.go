// Package ps2hw models a PS/2 mouse on a serio port: the standard command
// protocol (reset, set-rate, set-resolution, get-id, enable-reporting) and
// three-byte movement reports, delivered byte-by-byte through the i8042
// interrupt path.
package ps2hw

import (
	"sync"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kinput"
)

// PS/2 protocol bytes.
const (
	CmdReset         = 0xFF
	CmdEnable        = 0xF4
	CmdDisable       = 0xF5
	CmdSetRate       = 0xF3
	CmdSetResolution = 0xE8
	CmdGetID         = 0xF2
	RespAck          = 0xFA
	RespSelfTestOK   = 0xAA
)

// Mouse IDs.
const (
	IDStandard     = 0x00
	IDIntelliMouse = 0x03
)

// Mouse is one simulated PS/2 mouse.
type Mouse struct {
	mu   sync.Mutex
	port *kinput.SerioPort
	irq  *hw.IRQLine

	expectingArg byte // pending command awaiting its argument byte
	rateHistory  []byte
	reporting    bool
	id           byte
}

// New creates a mouse attached to the serio port, asserting irq for each
// byte it delivers (the i8042 path).
func New(port *kinput.SerioPort, irq *hw.IRQLine) *Mouse {
	m := &Mouse{port: port, irq: irq, id: IDStandard}
	port.ConnectDevice(m.handleByte)
	return m
}

// send delivers one byte to the driver and pulses the interrupt line.
func (m *Mouse) send(b byte) {
	m.port.DeliverToDriver(b)
	if m.irq != nil {
		m.irq.Raise()
	}
}

// handleByte processes one command byte from the driver.
func (m *Mouse) handleByte(b byte) {
	m.mu.Lock()
	pendingCmd := m.expectingArg
	if pendingCmd != 0 {
		m.expectingArg = 0
		// A resolution argument is acknowledged and ignored: the model
		// reports its deltas unscaled.
		switch pendingCmd {
		case CmdSetRate:
			m.rateHistory = append(m.rateHistory, b)
			// The IntelliMouse knock: rates 200, 100, 80 switch the mouse
			// into wheel mode (id 3). We model the id change only; wheel
			// reports stay 3 bytes for simplicity.
			n := len(m.rateHistory)
			if n >= 3 && m.rateHistory[n-3] == 200 && m.rateHistory[n-2] == 100 && m.rateHistory[n-1] == 80 {
				m.id = IDIntelliMouse
			}
		}
		m.mu.Unlock()
		m.send(RespAck)
		return
	}

	switch b {
	case CmdReset:
		m.reporting = false
		m.id = IDStandard
		m.rateHistory = nil
		m.mu.Unlock()
		m.send(RespAck)
		m.send(RespSelfTestOK)
		m.send(IDStandard)
	case CmdGetID:
		id := m.id
		m.mu.Unlock()
		m.send(RespAck)
		m.send(id)
	case CmdEnable:
		m.reporting = true
		m.mu.Unlock()
		m.send(RespAck)
	case CmdDisable:
		m.reporting = false
		m.mu.Unlock()
		m.send(RespAck)
	case CmdSetRate, CmdSetResolution:
		m.expectingArg = b
		m.mu.Unlock()
		m.send(RespAck)
	default:
		m.mu.Unlock()
		m.send(RespAck)
	}
}

// Move generates one movement report (three bytes, one interrupt each),
// if reporting is enabled.
func (m *Mouse) Move(dx, dy int, left, right bool) bool {
	m.mu.Lock()
	if !m.reporting {
		m.mu.Unlock()
		return false
	}
	m.mu.Unlock()

	flags := byte(0x08) // always-one bit
	if left {
		flags |= 0x01
	}
	if right {
		flags |= 0x02
	}
	if dx < 0 {
		flags |= 0x10
	}
	if dy < 0 {
		flags |= 0x20
	}
	m.send(flags)
	m.send(byte(dx))
	m.send(byte(dy))
	return true
}

// Reporting reports whether stream mode is enabled.
func (m *Mouse) Reporting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reporting
}
