// Package kinput is the simulated kernel input subsystem: serio ports for
// byte-oriented devices (the PS/2 mouse) and input devices reporting
// relative-motion and button events, driven by the psmouse driver and the
// Table 3 move-and-click workload.
package kinput

import (
	"fmt"
	"sync"
)

// Event is one input event (EV_REL / EV_KEY simplified).
type Event struct {
	// Type is "rel" or "key".
	Type string
	// Code is REL_X/REL_Y or BTN_LEFT/... by name.
	Code string
	// Value is the movement delta or key state.
	Value int
}

// Device is the input_dev analogue.
type Device struct {
	Name string

	mu     sync.Mutex
	events uint64
	syncs  uint64
	sink   func(Event)
}

// Subsystem is the input core.
type Subsystem struct {
	mu      sync.Mutex
	devices map[string]*Device
}

// New creates the input subsystem.
func New() *Subsystem {
	return &Subsystem{devices: make(map[string]*Device)}
}

// Register adds an input device (input_register_device).
func (s *Subsystem) Register(name string) (*Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.devices[name]; dup {
		return nil, fmt.Errorf("kinput: device %q already registered", name)
	}
	d := &Device{Name: name}
	s.devices[name] = d
	return d, nil
}

// Unregister removes an input device.
func (s *Subsystem) Unregister(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devices[name]; !ok {
		return fmt.Errorf("kinput: device %q not registered", name)
	}
	delete(s.devices, name)
	return nil
}

// Device finds a registered device.
func (s *Subsystem) Device(name string) (*Device, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[name]
	return d, ok
}

// SetSink installs the event consumer (the workload's event loop).
func (d *Device) SetSink(sink func(Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sink = sink
}

// ReportRel reports relative motion (input_report_rel).
func (d *Device) ReportRel(code string, value int) {
	d.emit(Event{Type: "rel", Code: code, Value: value})
}

// ReportKey reports a button state (input_report_key).
func (d *Device) ReportKey(code string, value int) {
	d.emit(Event{Type: "key", Code: code, Value: value})
}

// Sync marks the end of one event packet (input_sync).
func (d *Device) Sync() {
	d.mu.Lock()
	d.syncs++
	d.mu.Unlock()
}

func (d *Device) emit(e Event) {
	d.mu.Lock()
	d.events++
	sink := d.sink
	d.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Counts reports total events and packet syncs.
func (d *Device) Counts() (events, syncs uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events, d.syncs
}

// SerioPort is the serio analogue: a byte pipe between a port device (the
// PS/2 mouse) and its driver. The driver writes command bytes down; the
// device delivers response and report bytes up, one interrupt per byte.
type SerioPort struct {
	mu sync.Mutex
	// deviceWrite receives bytes written by the driver.
	deviceWrite func(byte)
	// driverRecv receives bytes from the device (runs in IRQ context via
	// the kernel interrupt path).
	driverRecv func(byte)
}

// NewSerioPort creates an unconnected port.
func NewSerioPort() *SerioPort { return &SerioPort{} }

// ConnectDevice attaches the device side (its byte handler).
func (p *SerioPort) ConnectDevice(h func(byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deviceWrite = h
}

// ConnectDriver attaches the driver side's receive handler.
func (p *SerioPort) ConnectDriver(h func(byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.driverRecv = h
}

// Write sends one byte from driver to device (serio_write).
func (p *SerioPort) Write(b byte) error {
	p.mu.Lock()
	h := p.deviceWrite
	p.mu.Unlock()
	if h == nil {
		return fmt.Errorf("kinput: serio port has no device")
	}
	h(b)
	return nil
}

// DeliverToDriver sends one byte from device to driver.
func (p *SerioPort) DeliverToDriver(b byte) {
	p.mu.Lock()
	h := p.driverRecv
	p.mu.Unlock()
	if h != nil {
		h(b)
	}
}
