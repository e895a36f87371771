// Package knet is the simulated kernel network subsystem: net_device
// registration, packet (sk_buff) transmit/receive paths, carrier state, and
// interface statistics. The netperf workloads of Table 3 drive the two
// network drivers (8139too, E1000) through this layer.
package knet

import (
	"fmt"
	"sync"

	"decafdrivers/internal/kernel"
)

// EthAddrLen is the Ethernet hardware address length.
const EthAddrLen = 6

// EthHeaderLen is the Ethernet header size prepended to payloads.
const EthHeaderLen = 14

// Packet is the sk_buff analogue: one frame moving through the stack.
type Packet struct {
	// Data is the frame contents, including the Ethernet header.
	Data []byte
	// Protocol is the EtherType.
	Protocol uint16
}

// Len reports the frame length.
func (p *Packet) Len() int { return len(p.Data) }

// NewPacket builds a frame with an Ethernet header and a payload of the
// given size filled with a deterministic pattern.
func NewPacket(dst, src [EthAddrLen]byte, proto uint16, payload int) *Packet {
	data := make([]byte, EthHeaderLen+payload)
	copy(data[0:6], dst[:])
	copy(data[6:12], src[:])
	data[12] = byte(proto >> 8)
	data[13] = byte(proto)
	for i := EthHeaderLen; i < len(data); i++ {
		data[i] = byte(i * 31)
	}
	return &Packet{Data: data, Protocol: proto}
}

// DeviceOps are the driver-supplied net_device operations.
type DeviceOps interface {
	// Open brings the interface up (ifconfig up -> ndo_open).
	Open(ctx *kernel.Context) error
	// Stop brings the interface down.
	Stop(ctx *kernel.Context) error
	// StartXmit queues one frame for transmission. It runs in the kernel
	// data path; returning an error drops the frame.
	StartXmit(ctx *kernel.Context, pkt *Packet) error
}

// Stats are the interface counters (netdev stats).
type Stats struct {
	TxPackets uint64
	TxBytes   uint64
	TxErrors  uint64
	RxPackets uint64
	RxBytes   uint64
	RxDropped uint64

	// Recovery-proxy accounting (shadow-driver style): while the driver is
	// being recovered the device looks slow, not dead — Transmit holds
	// frames instead of erroring. TxHeld counts every frame that arrived
	// during an outage, TxReplayed the held frames transmitted at resume,
	// and TxHeldDropped the rest (hold limit reached, replay failure, or
	// fail-stop); TxHeld == TxReplayed + TxHeldDropped once recovery ends.
	TxHeld        uint64
	TxReplayed    uint64
	TxHeldDropped uint64
}

// NetDevice is the net_device analogue.
type NetDevice struct {
	// Name is the interface name ("eth0").
	Name string
	// MAC is the hardware address, set by the driver during probe.
	MAC [EthAddrLen]byte
	// MTU is the maximum payload size.
	MTU int

	ops DeviceOps

	mu      sync.Mutex
	carrier bool
	up      bool
	stats   Stats
	rxSink  func(*Packet)

	// Recovery proxy state: while recovering, Transmit holds up to
	// holdLimit frames for replay at resume (see BeginRecovery).
	recovering bool
	heldTx     []*Packet
	holdLimit  int
}

// Subsystem is the network core: the registry of interfaces.
type Subsystem struct {
	mu      sync.Mutex
	devices map[string]*NetDevice
}

// New creates the network subsystem.
func New() *Subsystem {
	return &Subsystem{devices: make(map[string]*NetDevice)}
}

// Register adds an interface with its driver ops (register_netdev).
func (s *Subsystem) Register(name string, mtu int, ops DeviceOps) (*NetDevice, error) {
	if ops == nil {
		return nil, fmt.Errorf("knet: register %q with nil ops", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.devices[name]; dup {
		return nil, fmt.Errorf("knet: device %q already registered", name)
	}
	dev := &NetDevice{Name: name, MTU: mtu, ops: ops}
	s.devices[name] = dev
	return dev, nil
}

// FreeName returns the first unused interface name with the given prefix
// ("eth" -> "eth0", "eth1", ...), the kernel's ethN allocation.
func (s *Subsystem) FreeName(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if _, taken := s.devices[name]; !taken {
			return name
		}
	}
}

// Unregister removes an interface (unregister_netdev).
func (s *Subsystem) Unregister(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devices[name]; !ok {
		return fmt.Errorf("knet: device %q not registered", name)
	}
	delete(s.devices, name)
	return nil
}

// Device finds a registered interface.
func (s *Subsystem) Device(name string) (*NetDevice, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[name]
	return d, ok
}

// Up opens the interface through the driver (dev_open).
func (d *NetDevice) Up(ctx *kernel.Context) error {
	d.mu.Lock()
	if d.up {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	if err := d.ops.Open(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	d.up = true
	d.mu.Unlock()
	return nil
}

// Down closes the interface through the driver (dev_close).
func (d *NetDevice) Down(ctx *kernel.Context) error {
	d.mu.Lock()
	if !d.up {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	if err := d.ops.Stop(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	d.up = false
	d.mu.Unlock()
	return nil
}

// IsUp reports whether the interface is administratively up.
func (d *NetDevice) IsUp() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.up
}

// Transmit pushes one frame down the stack into the driver (dev_queue_xmit).
// During a driver recovery the frame is held (or, past the hold limit,
// dropped) with accounting and the call succeeds: the shadow-driver proxy
// makes the device look slow, not dead.
func (d *NetDevice) Transmit(ctx *kernel.Context, pkt *Packet) error {
	if !d.IsUp() {
		return fmt.Errorf("knet: %s is down", d.Name)
	}
	d.mu.Lock()
	if d.recovering {
		if d.holdLimit <= 0 || len(d.heldTx) < d.holdLimit {
			d.heldTx = append(d.heldTx, pkt)
			d.stats.TxHeld++
		} else {
			d.stats.TxHeld++
			d.stats.TxHeldDropped++
		}
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	if !d.CarrierOK() {
		d.mu.Lock()
		d.stats.TxErrors++
		d.mu.Unlock()
		return fmt.Errorf("knet: %s has no carrier", d.Name)
	}
	if err := d.ops.StartXmit(ctx, pkt); err != nil {
		d.mu.Lock()
		d.stats.TxErrors++
		d.mu.Unlock()
		return err
	}
	d.mu.Lock()
	d.stats.TxPackets++
	d.stats.TxBytes += uint64(pkt.Len())
	d.mu.Unlock()
	return nil
}

// Receive delivers one frame up the stack (netif_rx); drivers call it from
// their receive paths. Frames are dropped (and counted) when no protocol
// sink is attached.
func (d *NetDevice) Receive(pkt *Packet) {
	d.mu.Lock()
	sink := d.rxSink
	if sink == nil {
		d.stats.RxDropped++
		d.mu.Unlock()
		return
	}
	d.stats.RxPackets++
	d.stats.RxBytes += uint64(pkt.Len())
	d.mu.Unlock()
	sink(pkt)
}

// SetRxSink installs the protocol-layer receiver (the workload's socket).
func (d *NetDevice) SetRxSink(sink func(*Packet)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rxSink = sink
}

// BeginRecovery arms the recovery proxy: until EndRecovery (or
// AbortRecovery), Transmit holds up to limit frames — accounted in TxHeld —
// instead of reaching the driver, so callers see a slow device rather than
// a dead one. limit <= 0 holds without bound. Idempotent: a retried
// recovery keeps the frames already held.
func (d *NetDevice) BeginRecovery(limit int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recovering = true
	d.holdLimit = limit
}

// EndRecovery disarms the proxy and replays the held frames through the
// (restarted) driver in arrival order, reporting how many transmitted vs
// dropped. A frame the driver rejects counts as both a TX error and a held
// drop — the invariant TxHeld == TxReplayed + TxHeldDropped holds.
func (d *NetDevice) EndRecovery(ctx *kernel.Context) (replayed, dropped int) {
	d.mu.Lock()
	held := d.heldTx
	d.heldTx = nil
	d.recovering = false
	d.mu.Unlock()
	for _, pkt := range held {
		if err := d.ops.StartXmit(ctx, pkt); err != nil {
			dropped++
			d.mu.Lock()
			d.stats.TxErrors++
			d.stats.TxHeldDropped++
			d.mu.Unlock()
			continue
		}
		replayed++
		d.mu.Lock()
		d.stats.TxReplayed++
		d.stats.TxPackets++
		d.stats.TxBytes += uint64(pkt.Len())
		d.mu.Unlock()
	}
	return replayed, dropped
}

// AbortRecovery disarms the proxy dropping every held frame and turns the
// carrier off — the fail-stop outcome: the device is explicitly dead, not
// slow. It reports the frames dropped.
func (d *NetDevice) AbortRecovery() (dropped int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dropped = len(d.heldTx)
	d.stats.TxHeldDropped += uint64(dropped)
	d.heldTx = nil
	d.recovering = false
	d.carrier = false
	return dropped
}

// CarrierOn signals link-up (netif_carrier_on); drivers call it from their
// watchdog/link-change paths.
func (d *NetDevice) CarrierOn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.carrier = true
}

// CarrierOff signals link-down.
func (d *NetDevice) CarrierOff() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.carrier = false
}

// CarrierOK reports link state (netif_carrier_ok).
func (d *NetDevice) CarrierOK() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.carrier
}

// Stats returns a snapshot of the interface counters.
func (d *NetDevice) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
