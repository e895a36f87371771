package rtl8139hw

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

func newDev(t *testing.T) (*Device, *hw.Bus) {
	t.Helper()
	bus := hw.NewBus(ktime.NewClock(), 4<<20)
	d := New(bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 1, 2, 3})
	return d, bus
}

func TestMACReadableFromIDR(t *testing.T) {
	d, bus := newDev(t)
	mac := []byte{0x00, 0xE0, 0x4C, 1, 2, 3}
	for i, want := range mac {
		if got := bus.Inb(0xC000 + uint16(i)); got != want {
			t.Fatalf("IDR%d = %#x, want %#x", i, got, want)
		}
	}
	_ = d
}

func TestEEPROMSerialRead(t *testing.T) {
	_, bus := newDev(t)
	// Word 0: signature.
	bus.Outb(0xC000+Reg9346CR, 0x80|0)
	if got := bus.Inw(0xC000 + Reg9346CR); got != 0x8129 {
		t.Fatalf("EEPROM[0] = %#x", got)
	}
	// Words 7..9: MAC.
	bus.Outb(0xC000+Reg9346CR, 0x80|7)
	if got := bus.Inw(0xC000 + Reg9346CR); got != 0xE000 {
		t.Fatalf("EEPROM[7] = %#x", got)
	}
}

func TestResetClearsState(t *testing.T) {
	_, bus := newDev(t)
	bus.Outw(0xC000+RegIMR, IntROK|IntTOK)
	bus.Outb(0xC000+RegCR, CmdReset)
	if got := bus.Inw(0xC000 + RegIMR); got != 0 {
		t.Fatalf("IMR after reset = %#x", got)
	}
	if bus.Inb(0xC000+RegCR)&CmdReset != 0 {
		t.Fatal("reset bit stuck")
	}
}

func TestTransmitFourDescriptors(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	var wire [][]byte
	d.OnTransmit = func(f []byte) { wire = append(wire, f) }
	bus.Outb(0xC000+RegCR, CmdTxEnable|CmdRxEnable)
	for i := 0; i < NumTxDesc; i++ {
		buf, _ := dma.Alloc(2048, 32)
		dma.Write(buf, []byte{byte(i), 1, 2, 3})
		bus.Outl(0xC000+RegTSAD0+uint16(4*i), uint32(buf))
		bus.Outl(0xC000+RegTSD0+uint16(4*i), 4)
	}
	if len(wire) != NumTxDesc {
		t.Fatalf("wire = %d frames", len(wire))
	}
	for i := 0; i < NumTxDesc; i++ {
		tsd := bus.Inl(0xC000 + RegTSD0 + uint16(4*i))
		if tsd&TSDOwn == 0 || tsd&TSDTok == 0 {
			t.Fatalf("TSD%d = %#x, want OWN|TOK", i, tsd)
		}
	}
	if wire[2][0] != 2 {
		t.Fatal("frame payload mismatch")
	}
}

func TestTransmitDisabledTxIgnored(t *testing.T) {
	d, bus := newDev(t)
	sent := 0
	d.OnTransmit = func(f []byte) { sent++ }
	bus.Outb(0xC000+RegCR, CmdRxEnable) // tx disabled
	bus.Outl(0xC000+RegTSD0, 64)
	if sent != 0 {
		t.Fatal("transmitted with TE clear")
	}
}

func TestRxRingHeaderFormat(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	rxBuf, _ := dma.Alloc(RxBufLen, 256)
	bus.Outl(0xC000+RegRBSTART, uint32(rxBuf))
	bus.Outb(0xC000+RegCR, CmdRxEnable)

	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}
	if !d.InjectRx(frame) {
		t.Fatal("rx rejected")
	}
	// Buffer-empty must now read false.
	if bus.Inb(0xC000+RegCR)&CmdBufEmpty != 0 {
		t.Fatal("BUFE set with a pending packet")
	}
	status := dma.Read16(rxBuf)
	length := dma.Read16(rxBuf + 2)
	if status&0x0001 == 0 {
		t.Fatalf("header status = %#x, want ROK", status)
	}
	if int(length) != len(frame)+4 {
		t.Fatalf("header length = %d, want frame+CRC", length)
	}
	got := dma.Read(rxBuf+RxHeaderLen, len(frame))
	for i := range frame {
		if got[i] != frame[i] {
			t.Fatal("payload mismatch")
		}
	}
}

func TestRxDisabledDropped(t *testing.T) {
	d, bus := newDev(t)
	_ = bus
	if d.InjectRx([]byte{1, 2, 3}) {
		t.Fatal("rx accepted with RE clear")
	}
	_, _, _, _, drops := d.Counters()
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestISRWriteOneToClear(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	rxBuf, _ := dma.Alloc(RxBufLen, 256)
	bus.Outl(0xC000+RegRBSTART, uint32(rxBuf))
	bus.Outb(0xC000+RegCR, CmdRxEnable)
	d.InjectRx([]byte{1})
	if bus.Inw(0xC000+RegISR)&IntROK == 0 {
		t.Fatal("ROK not latched")
	}
	bus.Outw(0xC000+RegISR, IntROK)
	if bus.Inw(0xC000+RegISR)&IntROK != 0 {
		t.Fatal("ISR write-one-to-clear failed")
	}
}

func TestInterruptLineFollowsIMR(t *testing.T) {
	d, bus := newDev(t)
	fired := 0
	bus.IRQ(11).SetHandler(func() { fired++ })
	dma := bus.DMA()
	rxBuf, _ := dma.Alloc(RxBufLen, 256)
	bus.Outl(0xC000+RegRBSTART, uint32(rxBuf))
	bus.Outb(0xC000+RegCR, CmdRxEnable)
	d.InjectRx([]byte{1}) // IMR clear: latched only
	if fired != 0 {
		t.Fatal("masked interrupt fired")
	}
	bus.Outw(0xC000+RegIMR, IntROK) // unmask with pending: fires
	if fired != 1 {
		t.Fatalf("unmask with pending fired %d", fired)
	}
}

func TestCursorRewindWhenDrained(t *testing.T) {
	d, bus := newDev(t)
	dma := bus.DMA()
	rxBuf, _ := dma.Alloc(RxBufLen, 256)
	bus.Outl(0xC000+RegRBSTART, uint32(rxBuf))
	bus.Outb(0xC000+RegCR, CmdRxEnable)

	// Fill and drain repeatedly past the 32KB cap: without the rewind this
	// would overflow.
	frame := make([]byte, 1500)
	total := 0
	readPt := uint16(0)
	for i := 0; i < 100; i++ {
		if !d.InjectRx(frame) {
			t.Fatalf("rx %d rejected (ring did not rewind)", i)
		}
		total++
		// Drain: advance CAPR exactly as the driver does.
		advance := (RxHeaderLen + len(frame) + 4 + 3) &^ 3
		readPt += uint16(advance)
		bus.Outw(0xC000+RegCAPR, readPt-16)
		if bus.Inb(0xC000+RegCR)&CmdBufEmpty != 0 {
			readPt = 0
		}
	}
	_, _, rx, _, drops := d.Counters()
	if rx != 100 || drops != 0 {
		t.Fatalf("rx = %d, drops = %d", rx, drops)
	}
}

// TestTransmitUnobservedWire: whether or not anyone observes the wire, a
// transmit does everything the driver can see — counters, the OWN|TOK
// write-back in TSD and the TOK interrupt are those of the observed run;
// only the copy of the frame's bytes is skipped. The frames the observer is
// handed are its own: retained without a copy, they survive the four
// transmit buffers being reused more than twice over.
func TestTransmitUnobservedWire(t *testing.T) {
	type outcome struct {
		txFrames, txBytes, irqs uint64
		tsd                     [NumTxDesc]uint32
	}
	const frames = 1 + 2*NumTxDesc + 2
	frame := func(i int) []byte { return []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3), 9} }
	run := func(observe bool) (outcome, [][]byte) {
		d, bus := newDev(t)
		dma := bus.DMA()
		var wire [][]byte
		if observe {
			d.OnTransmit = func(f []byte) { wire = append(wire, f) }
		}
		bus.Outb(0xC000+RegCR, CmdTxEnable)
		bus.Outw(0xC000+RegIMR, IntTOK)
		var bufs [NumTxDesc]hw.DMAAddr
		for i := range bufs {
			bufs[i], _ = dma.Alloc(2048, 32)
			bus.Outl(0xC000+RegTSAD0+uint16(4*i), uint32(bufs[i]))
		}
		for i := 0; i < frames; i++ {
			e := i % NumTxDesc
			dma.Write(bufs[e], frame(i))
			bus.Outl(0xC000+RegTSD0+uint16(4*e), uint32(len(frame(i))))
			bus.Outw(0xC000+RegISR, IntTOK) // ack, as the driver's handler does
		}
		var o outcome
		o.txFrames, o.txBytes, _, _, _ = d.Counters()
		o.irqs, _ = d.PCI.IRQ().Stats()
		for i := range o.tsd {
			o.tsd[i] = bus.Inl(0xC000 + RegTSD0 + uint16(4*i))
		}
		return o, wire
	}
	observed, wire := run(true)
	unobserved, _ := run(false)
	if observed.txFrames != frames || observed.irqs != frames || observed.tsd[0]&(TSDOwn|TSDTok) == 0 {
		t.Fatalf("observed run = %+v, want %d frames counted, written back and interrupting", observed, frames)
	}
	if unobserved != observed {
		t.Fatalf("unobserved wire = %+v, observed wire = %+v: they must not differ", unobserved, observed)
	}
	if len(wire) != frames {
		t.Fatalf("the observer saw %d frames, want %d", len(wire), frames)
	}
	for i, got := range wire {
		if string(got) != string(frame(i)) {
			t.Fatalf("retained frame %d was overwritten by later traffic", i)
		}
	}
}
