package e1000hw

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

func newDev(t *testing.T) (*Device, *hw.Bus) {
	t.Helper()
	bus := hw.NewBus(ktime.NewClock(), 4<<20)
	d := New(bus, 9, [6]byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF})
	return d, bus
}

func rd(d *Device, off uint32) uint32    { return uint32(d.MMIORead(off, 4)) }
func wr(d *Device, off uint32, v uint32) { d.MMIOWrite(off, 4, uint64(v)) }

// eepromSum adds up the EEPROM's words, as a driver's checksum check does.
func eepromSum(d *Device) uint16 {
	var sum uint16
	for _, w := range d.eeprom {
		sum += w
	}
	return sum
}

func TestEEPROMReadViaEERD(t *testing.T) {
	d, _ := newDev(t)
	wr(d, RegEERD, 0<<8|EerdStart)
	v := rd(d, RegEERD)
	if v&EerdDone == 0 {
		t.Fatal("EERD never completed")
	}
	if uint16(v>>16) != 0xBBAA {
		t.Fatalf("EEPROM word 0 = %#x, want MAC bytes", v>>16)
	}
	if eepromSum(d) != EEPROMChecksum {
		t.Fatal("fresh EEPROM checksum invalid")
	}
	d.CorruptEEPROM()
	if eepromSum(d) == EEPROMChecksum {
		t.Fatal("corrupted EEPROM checksum still valid")
	}
}

func TestPHYViaMDIC(t *testing.T) {
	d, _ := newDev(t)
	wr(d, RegMDIC, PhyID1<<16|MdicOpRead)
	v := rd(d, RegMDIC)
	if v&MdicReady == 0 {
		t.Fatal("MDIC not ready")
	}
	if uint16(v) != 0x0141 {
		t.Fatalf("PHY ID1 = %#x", uint16(v))
	}
	// Write, then read back.
	wr(d, RegMDIC, PhyCtrl<<16|MdicOpWrite|0x1234)
	wr(d, RegMDIC, PhyCtrl<<16|MdicOpRead)
	if uint16(rd(d, RegMDIC)) != 0x1234 {
		t.Fatal("PHY write did not stick")
	}
	// No op bits: error.
	wr(d, RegMDIC, PhyCtrl<<16)
	if rd(d, RegMDIC)&MdicError == 0 {
		t.Fatal("malformed MDIC accepted")
	}
}

func TestICRClearsOnRead(t *testing.T) {
	d, _ := newDev(t)
	wr(d, RegIMS, IntLSC)
	d.SetLink(true)
	if rd(d, RegICR)&IntLSC == 0 {
		t.Fatal("LSC not latched")
	}
	if rd(d, RegICR) != 0 {
		t.Fatal("ICR did not clear on read")
	}
}

func TestInterruptMasking(t *testing.T) {
	d, _ := newDev(t)
	fired := 0
	d.PCI.IRQ().SetHandler(func() { fired++ })
	d.SetLink(true) // unmasked: IMS clear, so no line assert
	if fired != 0 {
		t.Fatal("masked interrupt fired")
	}
	// Unmasking with a pending cause fires immediately.
	wr(d, RegIMS, IntLSC)
	if fired != 1 {
		t.Fatalf("pending cause on unmask fired %d times", fired)
	}
	wr(d, RegIMC, ^uint32(0))
	d.SetLink(false)
	if fired != 1 {
		t.Fatal("IMC did not mask")
	}
}

func TestTxDescriptorProcessing(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	base, _ := dma.Alloc(4*TxDescSize, 128)
	buf, _ := dma.Alloc(2048, 64)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	dma.Write(buf, payload)
	dma.Write64(base, uint64(buf))
	dma.Write16(base+8, uint16(len(payload)))
	dma.Write8(base+11, TxCmdEOP|TxCmdRS)

	var wire [][]byte
	d.OnTransmit = func(f []byte) { wire = append(wire, f) }
	wr(d, RegTCTL, TctlEN)
	wr(d, RegTDBAL, uint32(base))
	wr(d, RegTDLEN, 4*TxDescSize)
	wr(d, RegTDH, 0)
	wr(d, RegTDT, 1)

	if len(wire) != 1 || len(wire[0]) != len(payload) {
		t.Fatalf("wire = %d frames", len(wire))
	}
	if dma.Read8(base+12)&TxStatusDD == 0 {
		t.Fatal("DD not written back")
	}
	if rd(d, RegTDH) != 1 {
		t.Fatalf("TDH = %d", rd(d, RegTDH))
	}
	tx, txb, _, _, _ := d.Counters()
	if tx != 1 || txb != uint64(len(payload)) {
		t.Fatalf("counters = %d, %d", tx, txb)
	}
}

func TestTxDisabledNoProcessing(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	base, _ := dma.Alloc(4*TxDescSize, 128)
	wr(d, RegTDBAL, uint32(base))
	wr(d, RegTDLEN, 4*TxDescSize)
	wr(d, RegTDT, 1) // TCTL.EN clear
	tx, _, _, _, _ := d.Counters()
	if tx != 0 {
		t.Fatal("transmitted with TCTL.EN clear")
	}
}

func TestRxInjectionAndRingFull(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	const count = 4
	base, _ := dma.Alloc(count*RxDescSize, 128)
	for i := 0; i < count; i++ {
		buf, _ := dma.Alloc(2048, 64)
		dma.Write64(base+hw.DMAAddr(i*RxDescSize), uint64(buf))
	}
	// Receiver off: drop.
	if d.InjectRx([]byte{1}) {
		t.Fatal("rx accepted with RCTL.EN clear")
	}
	wr(d, RegRCTL, RctlEN)
	wr(d, RegRDBAL, uint32(base))
	wr(d, RegRDLEN, count*RxDescSize)
	wr(d, RegRDH, 0)
	wr(d, RegRDT, count-1)

	frame := []byte{9, 8, 7, 6}
	if !d.InjectRx(frame) {
		t.Fatal("rx rejected with free descriptors")
	}
	if dma.Read8(base+12)&RxStatusDD == 0 {
		t.Fatal("DD not set on rx descriptor")
	}
	if dma.Read16(base+8) != uint16(len(frame)) {
		t.Fatal("length not written")
	}
	// Fill the remaining free descriptors, then overflow.
	if !d.InjectRx(frame) || !d.InjectRx(frame) {
		t.Fatal("ring rejected with space left")
	}
	if d.InjectRx(frame) {
		t.Fatal("ring accepted past RDT")
	}
	_, _, rx, _, drops := d.Counters()
	if rx != 3 || drops != 2 {
		t.Fatalf("rx = %d, drops = %d", rx, drops)
	}
}

func TestIntrBatchCoalescing(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	const count = 64
	base, _ := dma.Alloc(count*RxDescSize, 128)
	for i := 0; i < count; i++ {
		buf, _ := dma.Alloc(2048, 64)
		dma.Write64(base+hw.DMAAddr(i*RxDescSize), uint64(buf))
	}
	wr(d, RegRCTL, RctlEN)
	wr(d, RegRDBAL, uint32(base))
	wr(d, RegRDLEN, count*RxDescSize)
	wr(d, RegRDH, 0)
	wr(d, RegRDT, count-1)
	wr(d, RegIMS, IntRXT0)
	fired := 0
	d.PCI.IRQ().SetHandler(func() { fired++ })

	d.SetIntrBatch(8)
	for i := 0; i < 16; i++ {
		d.InjectRx([]byte{1, 2, 3})
	}
	if fired != 2 {
		t.Fatalf("16 frames at batch 8 fired %d interrupts, want 2", fired)
	}
	// Acknowledge pending causes, then verify LSC bypasses the throttle.
	_ = rd(d, RegICR)
	wr(d, RegIMS, IntLSC)
	if fired != 2 {
		t.Fatalf("unmask with clear ICR fired: %d", fired)
	}
	d.SetLink(false)
	if fired != 3 {
		t.Fatalf("LSC throttled: fired = %d", fired)
	}
}

func TestResetClearsRegisters(t *testing.T) {
	d, _ := newDev(t)
	d.SetLink(true)
	wr(d, RegIMS, ^uint32(0))
	wr(d, RegTCTL, TctlEN)
	wr(d, RegCTRL, CtrlRST)
	if rd(d, RegTCTL) != 0 || rd(d, RegIMS) != 0 {
		t.Fatal("reset did not clear registers")
	}
	if rd(d, RegSTATUS)&StatusLU == 0 {
		t.Fatal("reset dropped link state")
	}
}

// txRing is a transmit ring programmed the way the driver does it: count
// descriptors, one 2 KiB buffer each, TXDW unmasked.
type txRing struct {
	d    *Device
	dma  *hw.DMAMemory
	base hw.DMAAddr
	bufs []hw.DMAAddr
	tail uint32
}

func newTxRing(t *testing.T, count int) *txRing {
	t.Helper()
	d, bus := newDev(t)
	r := &txRing{d: d, dma: bus.DMA()}
	r.base, _ = r.dma.Alloc(count*TxDescSize, 128)
	for i := 0; i < count; i++ {
		b, err := r.dma.Alloc(2048, 64)
		if err != nil {
			t.Fatal(err)
		}
		r.bufs = append(r.bufs, b)
	}
	wr(d, RegTCTL, TctlEN)
	wr(d, RegTDBAL, uint32(r.base))
	wr(d, RegTDLEN, uint32(count*TxDescSize))
	wr(d, RegTDH, 0)
	wr(d, RegTDT, 0)
	wr(d, RegIMS, IntTXDW)
	return r
}

// send queues one frame on the next descriptor and rings the doorbell.
func (r *txRing) send(frame []byte) (desc hw.DMAAddr) {
	i := r.tail
	desc = r.base + hw.DMAAddr(i*TxDescSize)
	r.dma.Write(r.bufs[i], frame)
	r.dma.Write64(desc+DescAddrOff, uint64(r.bufs[i]))
	r.dma.Write16(desc+DescLengthOff, uint16(len(frame)))
	r.dma.Write8(desc+TxDescCmdOff, TxCmdEOP|TxCmdRS)
	r.dma.Write8(desc+DescStatusOff, 0)
	r.tail = (i + 1) % uint32(len(r.bufs))
	wr(r.d, RegTDT, r.tail)
	return desc
}

// TestProcessTxUnobservedWire: whether or not anyone observes the wire, a
// transmit does everything the driver and the statistics can see — the
// adapter counters, GPTC, the DD write-back and the TXDW interrupts are
// those of the observed run. Only the copy of the frame's bytes is skipped.
func TestProcessTxUnobservedWire(t *testing.T) {
	type outcome struct {
		txFrames, txBytes, gptc uint64
		dd                      int
		irqs                    uint64
		tdh                     uint32
	}
	const frames = 11 // wraps the 4-descriptor ring
	run := func(observe bool) (outcome, int) {
		r := newTxRing(t, 4)
		r.d.SetIntrBatch(2)
		seen := 0
		if observe {
			r.d.OnTransmit = func([]byte) { seen++ }
		}
		var o outcome
		for i := 0; i < frames; i++ {
			desc := r.send(make([]byte, 60+i))
			if r.dma.Read8(desc+DescStatusOff)&TxStatusDD != 0 {
				o.dd++
			}
		}
		o.txFrames, o.txBytes, _, _, _ = r.d.Counters()
		o.gptc = uint64(rd(r.d, RegGPTC))
		o.irqs, _ = r.d.PCI.IRQ().Stats()
		o.tdh = rd(r.d, RegTDH)
		return o, seen
	}
	observed, seen := run(true)
	unobserved, _ := run(false)
	if seen != frames {
		t.Fatalf("the observer saw %d frames, want %d", seen, frames)
	}
	if observed.txFrames != frames || observed.dd != frames || observed.gptc != frames || observed.irqs == 0 {
		t.Fatalf("observed run = %+v, want %d frames counted, written back and interrupting", observed, frames)
	}
	if unobserved != observed {
		t.Fatalf("unobserved wire = %+v, observed wire = %+v: they must not differ", unobserved, observed)
	}
}

// TestProcessTxUnobservedWireStillFaults: a descriptor naming a buffer
// outside the arena is a fault on the unobserved wire too — the range check
// the skipped read carried is still made.
func TestProcessTxUnobservedWireStillFaults(t *testing.T) {
	r := newTxRing(t, 4)
	r.bufs[0] = hw.DMAAddr(r.dma.Size() - 8)
	defer func() {
		if recover() == nil {
			t.Fatal("a 64-byte frame 8 bytes from the end of the arena did not fault")
		}
	}()
	desc := r.base
	r.dma.Write64(desc+DescAddrOff, uint64(r.bufs[0]))
	r.dma.Write16(desc+DescLengthOff, 64)
	wr(r.d, RegTDT, 1)
}

// TestOnTransmitFrameSurvivesRingReuse: the slice handed to OnTransmit is
// the observer's to keep. Retained without a copy, it still holds its frame
// after the descriptor ring and every buffer in it have been reused more
// than twice over.
func TestOnTransmitFrameSurvivesRingReuse(t *testing.T) {
	const count = 4
	r := newTxRing(t, count)
	var wire [][]byte
	r.d.OnTransmit = func(f []byte) { wire = append(wire, f) }
	frame := func(i int) []byte {
		f := make([]byte, 64)
		for j := range f {
			f[j] = byte(i*7 + j)
		}
		return f
	}
	const total = 1 + 2*count + 3
	for i := 0; i < total; i++ {
		r.send(frame(i))
	}
	if len(wire) != total {
		t.Fatalf("wire saw %d frames, want %d", len(wire), total)
	}
	for i, got := range wire {
		if string(got) != string(frame(i)) {
			t.Fatalf("retained frame %d was overwritten by later traffic", i)
		}
	}
}

// TestRegisterFileBounds: the register file is an array over the BAR's
// aligned dwords, and an MMIO offset reaches it only through a check. The
// first and last modeled registers, the first offset past the BAR, the top
// of the offset space and an unaligned offset all behave as they did when
// the file was a map: a register never written reads zero, a write reads
// back, and reset clears it — and none of them indexes out of range.
func TestRegisterFileBounds(t *testing.T) {
	for _, off := range []uint32{0, RegTDT, 0x1FFFC, 0x20000, 0xFFFFFFFC, RegRDT + 1, 0x1FFFF} {
		d, _ := newDev(t)
		if got := rd(d, off); got != 0 {
			t.Errorf("offset %#x reads %#x before any write", off, got)
		}
		v := uint32(0x40) // no CtrlRST bit: offset 0 is CTRL
		wr(d, off, v)
		if got := rd(d, off); got != v {
			t.Errorf("offset %#x reads %#x after writing %#x", off, got, v)
		}
		for _, other := range []uint32{RegRDH, RegTDH, RegICR} {
			if got := rd(d, other); got != 0 {
				t.Errorf("writing offset %#x changed register %#x to %#x", off, other, got)
			}
		}
		wr(d, RegCTRL, CtrlRST)
		if got := rd(d, off); got != 0 {
			t.Errorf("offset %#x reads %#x after reset", off, got)
		}
	}
}
