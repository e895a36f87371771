// Package kusb is the simulated USB core: URB submission and completion
// against a host-controller driver (HCD). The uhci-hcd driver registers
// here, and the tar-to-flash workload of Table 3 submits bulk URBs through
// this layer.
package kusb

import (
	"fmt"
	"sync"

	"decafdrivers/internal/kernel"
)

// Direction of a transfer.
type Direction int

// Transfer directions.
const (
	// DirOut moves data host -> device.
	DirOut Direction = iota
	// DirIn moves data device -> host.
	DirIn
)

// URB is a USB request block.
type URB struct {
	// Endpoint is the device endpoint number.
	Endpoint int
	// Dir is the transfer direction.
	Dir Direction
	// Data is the payload (out) or receive buffer (in).
	Data []byte
	// Complete is invoked when the transfer finishes; it may run in
	// interrupt context.
	Complete func(*URB)
	// Status is 0 on success or a negative errno.
	Status int
	// ActualLength is the number of bytes transferred.
	ActualLength int
}

// HCD is the host-controller driver interface (the uhci-hcd nucleus
// implements it).
type HCD interface {
	// Enqueue schedules a URB for transfer.
	Enqueue(ctx *kernel.Context, urb *URB) error
}

// Core is the USB subsystem.
type Core struct {
	mu   sync.Mutex
	hcds map[string]HCD
}

// New creates the USB core.
func New() *Core {
	return &Core{hcds: make(map[string]HCD)}
}

// RegisterHCD registers a host controller (usb_add_hcd).
func (c *Core) RegisterHCD(name string, hcd HCD) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.hcds[name]; dup {
		return fmt.Errorf("kusb: HCD %q already registered", name)
	}
	c.hcds[name] = hcd
	return nil
}

// UnregisterHCD removes a host controller.
func (c *Core) UnregisterHCD(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.hcds[name]; !ok {
		return fmt.Errorf("kusb: HCD %q not registered", name)
	}
	delete(c.hcds, name)
	return nil
}

// HCDByName finds a registered controller.
func (c *Core) HCDByName(name string) (HCD, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hcds[name]
	return h, ok
}

// SubmitURB routes a URB to the named controller (usb_submit_urb).
func (c *Core) SubmitURB(ctx *kernel.Context, hcdName string, urb *URB) error {
	h, ok := c.HCDByName(hcdName)
	if !ok {
		return fmt.Errorf("kusb: no HCD %q", hcdName)
	}
	if urb == nil || (urb.Dir == DirOut && len(urb.Data) == 0) {
		return fmt.Errorf("kusb: malformed URB")
	}
	return h.Enqueue(ctx, urb)
}
