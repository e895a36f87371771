package knet

import (
	"errors"
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
)

type fakeOps struct {
	opened, stopped bool
	sent            []*Packet
	xmitErr         error
	openErr         error
}

func (f *fakeOps) Open(ctx *kernel.Context) error { f.opened = true; return f.openErr }
func (f *fakeOps) Stop(ctx *kernel.Context) error { f.stopped = true; return nil }
func (f *fakeOps) StartXmit(ctx *kernel.Context, pkt *Packet) error {
	if f.xmitErr != nil {
		return f.xmitErr
	}
	f.sent = append(f.sent, pkt)
	return nil
}

func newNet(t *testing.T) (*Subsystem, *kernel.Kernel) {
	t.Helper()
	clock := ktime.NewClock()
	k := kernel.New(clock, hw.NewBus(clock, 1<<16))
	return New(), k
}

func TestRegisterUnregister(t *testing.T) {
	s, _ := newNet(t)
	dev, err := s.Register("eth0", 1500, &fakeOps{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.MTU != 1500 || dev.Name != "eth0" {
		t.Fatalf("device = %+v", dev)
	}
	if _, err := s.Register("eth0", 1500, &fakeOps{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := s.Register("eth1", 1500, nil); err == nil {
		t.Fatal("nil ops accepted")
	}
	if err := s.Unregister("eth0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("eth0"); err == nil {
		t.Fatal("double unregister accepted")
	}
	if _, ok := s.Device("eth0"); ok {
		t.Fatal("device still resolvable")
	}
}

func TestUpDownLifecycle(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{}
	dev, _ := s.Register("eth0", 1500, ops)
	ctx := k.NewContext("t")
	if dev.IsUp() {
		t.Fatal("up before Up()")
	}
	if err := dev.Up(ctx); err != nil {
		t.Fatal(err)
	}
	if !ops.opened || !dev.IsUp() {
		t.Fatal("Open not propagated")
	}
	// Idempotent.
	ops.opened = false
	if err := dev.Up(ctx); err != nil || ops.opened {
		t.Fatal("double Up reopened the driver")
	}
	if err := dev.Down(ctx); err != nil {
		t.Fatal(err)
	}
	if !ops.stopped || dev.IsUp() {
		t.Fatal("Stop not propagated")
	}
}

func TestUpFailurePropagates(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{openErr: errors.New("no irq")}
	dev, _ := s.Register("eth0", 1500, ops)
	if err := dev.Up(k.NewContext("t")); err == nil {
		t.Fatal("failed open reported success")
	}
	if dev.IsUp() {
		t.Fatal("device marked up after failed open")
	}
}

func TestTransmitGates(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{}
	dev, _ := s.Register("eth0", 1500, ops)
	ctx := k.NewContext("t")
	pkt := NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 100)

	if err := dev.Transmit(ctx, pkt); err == nil {
		t.Fatal("transmit on down interface accepted")
	}
	_ = dev.Up(ctx)
	if err := dev.Transmit(ctx, pkt); err == nil {
		t.Fatal("transmit without carrier accepted")
	}
	if dev.Stats().TxErrors != 1 {
		t.Fatalf("TxErrors = %d", dev.Stats().TxErrors)
	}
	dev.CarrierOn()
	if err := dev.Transmit(ctx, pkt); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.TxPackets != 1 || st.TxBytes != uint64(pkt.Len()) {
		t.Fatalf("stats = %+v", st)
	}
	if len(ops.sent) != 1 {
		t.Fatal("driver did not see the frame")
	}
}

func TestTransmitDriverErrorCounted(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{xmitErr: errors.New("ring full")}
	dev, _ := s.Register("eth0", 1500, ops)
	ctx := k.NewContext("t")
	_ = dev.Up(ctx)
	dev.CarrierOn()
	if err := dev.Transmit(ctx, NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 10)); err == nil {
		t.Fatal("driver error swallowed")
	}
	if dev.Stats().TxErrors != 1 {
		t.Fatal("TxErrors not counted")
	}
}

func TestReceivePath(t *testing.T) {
	s, _ := newNet(t)
	dev, _ := s.Register("eth0", 1500, &fakeOps{})
	// No sink: dropped and counted.
	dev.Receive(&Packet{Data: make([]byte, 60)})
	if dev.Stats().RxDropped != 1 {
		t.Fatalf("RxDropped = %d", dev.Stats().RxDropped)
	}
	var got *Packet
	dev.SetRxSink(func(p *Packet) { got = p })
	dev.Receive(&Packet{Data: make([]byte, 80)})
	if got == nil || got.Len() != 80 {
		t.Fatal("sink did not receive")
	}
	st := dev.Stats()
	if st.RxPackets != 1 || st.RxBytes != 80 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCarrierToggle(t *testing.T) {
	s, _ := newNet(t)
	dev, _ := s.Register("eth0", 1500, &fakeOps{})
	if dev.CarrierOK() {
		t.Fatal("carrier up by default")
	}
	dev.CarrierOn()
	if !dev.CarrierOK() {
		t.Fatal("CarrierOn failed")
	}
	dev.CarrierOff()
	if dev.CarrierOK() {
		t.Fatal("CarrierOff failed")
	}
}

func TestNewPacketLayout(t *testing.T) {
	dst := [6]byte{1, 2, 3, 4, 5, 6}
	src := [6]byte{7, 8, 9, 10, 11, 12}
	p := NewPacket(dst, src, 0x0800, 100)
	if p.Len() != EthHeaderLen+100 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Data[0] != 1 || p.Data[5] != 6 {
		t.Fatal("dst MAC misplaced")
	}
	if p.Data[6] != 7 || p.Data[11] != 12 {
		t.Fatal("src MAC misplaced")
	}
	if p.Data[12] != 0x08 || p.Data[13] != 0x00 {
		t.Fatal("ethertype misplaced")
	}
}

// TestRecoveryProxyHoldsAndReplays: during a recovery the device looks
// slow, not dead — Transmit succeeds, frames queue up to the hold limit
// (the rest drop with accounting), and EndRecovery replays them in order.
func TestRecoveryProxyHoldsAndReplays(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{}
	dev, _ := s.Register("eth0", 1500, ops)
	ctx := k.NewContext("t")
	if err := dev.Up(ctx); err != nil {
		t.Fatal(err)
	}
	dev.CarrierOn()

	dev.BeginRecovery(3)
	if !dev.recovering {
		t.Fatal("proxy not armed")
	}
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 10+i)
		pkts = append(pkts, p)
		if err := dev.Transmit(ctx, p); err != nil {
			t.Fatalf("Transmit during recovery errored: %v", err)
		}
	}
	if len(ops.sent) != 0 {
		t.Fatal("frames reached the driver during the outage")
	}
	if len(dev.heldTx) != 3 {
		t.Fatalf("HeldTx = %d, want the hold limit", len(dev.heldTx))
	}
	st := dev.Stats()
	if st.TxHeld != 5 || st.TxHeldDropped != 2 {
		t.Fatalf("stats = %+v", st)
	}

	replayed, dropped := dev.EndRecovery(ctx)
	if replayed != 3 || dropped != 0 {
		t.Fatalf("EndRecovery = %d, %d", replayed, dropped)
	}
	if dev.recovering || len(dev.heldTx) != 0 {
		t.Fatal("proxy still armed after EndRecovery")
	}
	// Replay preserved arrival order and counted the transmits.
	if len(ops.sent) != 3 || ops.sent[0] != pkts[0] || ops.sent[2] != pkts[2] {
		t.Fatalf("replayed %d frames out of order", len(ops.sent))
	}
	st = dev.Stats()
	if st.TxReplayed != 3 || st.TxPackets != 3 {
		t.Fatalf("stats after replay = %+v", st)
	}
	if st.TxHeld != st.TxReplayed+st.TxHeldDropped {
		t.Fatalf("held invariant broken: %+v", st)
	}
	// Normal transmission resumes.
	if err := dev.Transmit(ctx, pkts[0]); err != nil {
		t.Fatal(err)
	}
	if len(ops.sent) != 4 {
		t.Fatal("post-recovery transmit did not reach the driver")
	}
}

// TestRecoveryProxyReplayFailureCountsDrops: frames the restarted driver
// rejects at replay count as errors and held drops, keeping the invariant.
func TestRecoveryProxyReplayFailureCountsDrops(t *testing.T) {
	s, k := newNet(t)
	ops := &fakeOps{}
	dev, _ := s.Register("eth0", 1500, ops)
	ctx := k.NewContext("t")
	_ = dev.Up(ctx)
	dev.CarrierOn()
	dev.BeginRecovery(0) // unbounded hold
	for i := 0; i < 4; i++ {
		_ = dev.Transmit(ctx, NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 10))
	}
	ops.xmitErr = errors.New("ring gone")
	replayed, dropped := dev.EndRecovery(ctx)
	if replayed != 0 || dropped != 4 {
		t.Fatalf("EndRecovery = %d, %d", replayed, dropped)
	}
	st := dev.Stats()
	if st.TxHeld != 4 || st.TxHeldDropped != 4 || st.TxErrors != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAbortRecoveryFailsStop: fail-stop drops the held frames and kills the
// carrier, so Transmit errors explicitly afterwards.
func TestAbortRecoveryFailsStop(t *testing.T) {
	s, k := newNet(t)
	dev, _ := s.Register("eth0", 1500, &fakeOps{})
	ctx := k.NewContext("t")
	_ = dev.Up(ctx)
	dev.CarrierOn()
	dev.BeginRecovery(8)
	for i := 0; i < 3; i++ {
		_ = dev.Transmit(ctx, NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 10))
	}
	if dropped := dev.AbortRecovery(); dropped != 3 {
		t.Fatalf("AbortRecovery dropped %d, want 3", dropped)
	}
	if dev.CarrierOK() {
		t.Fatal("carrier still on after abort")
	}
	if err := dev.Transmit(ctx, NewPacket([6]byte{1}, [6]byte{2}, 0x0800, 10)); err == nil {
		t.Fatal("Transmit succeeded on a fail-stopped device")
	}
	if st := dev.Stats(); st.TxHeldDropped != 3 {
		t.Fatalf("stats = %+v", st)
	}
}
