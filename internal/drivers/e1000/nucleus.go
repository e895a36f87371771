package e1000

import (
	"encoding/binary"
	"fmt"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
)

// Per-packet CPU costs charged by the data path, calibrated to the paper's
// Table 3 CPU utilizations (gigabit DMA hardware: cheap sends, costlier
// receives because of buffer handling).
const (
	txPacketCost = 180 * time.Nanosecond
	rxPacketCost = 2100 * time.Nanosecond
	intrCost     = 500 * time.Nanosecond
)

// txRing is the kernel-only transmit ring state: DMA addresses never cross
// to user level.
type txRing struct {
	descBase hw.DMAAddr
	buffers  []hw.DMAAddr
	count    uint32
}

type rxRing struct {
	descBase hw.DMAAddr
	buffers  []hw.DMAAddr
	count    uint32
	// lens is cleanRxIRQ's scratch: the frame lengths of the burst it is
	// draining, one per descriptor at most.
	lens []int
}

// nucleus is the driver nucleus: the kernel-resident half of the split
// driver. Its methods are the functions DriverSlicer's reachability pass
// keeps in the kernel.
//
//decaf:nucleus
type nucleus struct {
	drv     *Driver
	txLock  *kernel.SpinLock
	rxLock  *kernel.SpinLock
	tx      txRing
	rx      rxRing
	irqName string
}

func newNucleus(d *Driver) *nucleus {
	return &nucleus{
		drv:     d,
		txLock:  kernel.NewSpinLock("e1000.tx_lock"),
		rxLock:  kernel.NewSpinLock("e1000.rx_lock"),
		irqName: "e1000",
	}
}

func (n *nucleus) readReg(off uint32) uint32 {
	return uint32(n.drv.dev.PCI.MMIORead(0, off, 4))
}

func (n *nucleus) writeReg(off uint32, v uint32) {
	n.drv.dev.PCI.MMIOWrite(0, off, 4, uint64(v))
}

// readEEPROMWord is a kernel entry point: the decaf driver reads the EEPROM
// one word at a time through downcalls, because EERD is shared with the
// data path and must be serialized in the kernel.
func (n *nucleus) readEEPROMWord(ctx *kernel.Context, addr uint32) (uint16, error) {
	if addr >= EEPROMWords {
		return 0, fmt.Errorf("e1000: EEPROM address %d out of range", addr)
	}
	n.writeReg(e1000hw.RegEERD, addr<<8|e1000hw.EerdStart)
	ctx.UDelay(2)
	v := n.readReg(e1000hw.RegEERD)
	if v&e1000hw.EerdDone == 0 {
		return 0, fmt.Errorf("e1000: EEPROM read of word %d did not complete", addr)
	}
	return uint16(v >> 16), nil
}

// phyRead is a kernel entry point wrapping MDIC reads; it returns a negative
// errno-style code on failure, the C convention the decaf driver converts
// to exceptions (Figure 5).
func (n *nucleus) phyRead(ctx *kernel.Context, reg uint32) (uint16, int) {
	n.writeReg(e1000hw.RegMDIC, (reg&0x1F)<<16|e1000hw.MdicOpRead)
	ctx.UDelay(5)
	v := n.readReg(e1000hw.RegMDIC)
	if v&e1000hw.MdicReady == 0 || v&e1000hw.MdicError != 0 {
		return 0, -5 // -EIO
	}
	return uint16(v), 0
}

// phyWrite is the MDIC write twin of phyRead.
func (n *nucleus) phyWrite(ctx *kernel.Context, reg uint32, val uint16) int {
	n.writeReg(e1000hw.RegMDIC, (reg&0x1F)<<16|e1000hw.MdicOpWrite|uint32(val))
	ctx.UDelay(5)
	v := n.readReg(e1000hw.RegMDIC)
	if v&e1000hw.MdicReady == 0 || v&e1000hw.MdicError != 0 {
		return -5
	}
	return 0
}

// resetHW issues a full device reset (kernel entry point: reset must be
// serialized against the data path).
func (n *nucleus) resetHW(ctx *kernel.Context) {
	n.writeReg(e1000hw.RegCTRL, e1000hw.CtrlRST)
	ctx.UDelay(10)
}

// setupTxResources allocates the transmit descriptor ring and its buffers
// in DMA memory — Figure 4's e1000_setup_all_tx_resources, a kernel entry
// point because DMA allocation is a kernel service.
func (n *nucleus) setupTxResources(ctx *kernel.Context) error {
	a := n.drv.Adapter
	count := a.TxRingSize
	dma := n.drv.kern.Bus().DMA()
	base, err := dma.Alloc(int(count)*e1000hw.TxDescSize, 128)
	if err != nil {
		return fmt.Errorf("e1000: tx ring: %w", err)
	}
	bufs := make([]hw.DMAAddr, 0, count)
	for i := uint32(0); i < count; i++ {
		b, err := dma.Alloc(RxBufferSize, 64)
		if err != nil {
			// Release what was acquired: the C driver's error path frees
			// partial allocations before propagating the failure.
			for _, pb := range bufs {
				_ = dma.Free(pb)
			}
			_ = dma.Free(base)
			return fmt.Errorf("e1000: tx buffer %d: %w", i, err)
		}
		bufs = append(bufs, b)
		dma.Write64(base+hw.DMAAddr(i*e1000hw.TxDescSize), uint64(b))
	}
	n.tx = txRing{descBase: base, buffers: bufs, count: count}
	n.writeReg(e1000hw.RegTDBAL, uint32(base))
	n.writeReg(e1000hw.RegTDLEN, count*e1000hw.TxDescSize)
	n.writeReg(e1000hw.RegTDH, 0)
	n.writeReg(e1000hw.RegTDT, 0)
	a.TxNextToUse, a.TxNextToClean = 0, 0
	return nil
}

// setupRxResources allocates the receive ring, Figure 4's
// e1000_setup_all_rx_resources.
func (n *nucleus) setupRxResources(ctx *kernel.Context) error {
	a := n.drv.Adapter
	count := a.RxRingSize
	dma := n.drv.kern.Bus().DMA()
	base, err := dma.Alloc(int(count)*e1000hw.RxDescSize, 128)
	if err != nil {
		return fmt.Errorf("e1000: rx ring: %w", err)
	}
	bufs := make([]hw.DMAAddr, 0, count)
	for i := uint32(0); i < count; i++ {
		b, err := dma.Alloc(RxBufferSize, 64)
		if err != nil {
			for _, pb := range bufs {
				_ = dma.Free(pb)
			}
			_ = dma.Free(base)
			return fmt.Errorf("e1000: rx buffer %d: %w", i, err)
		}
		bufs = append(bufs, b)
		dma.Write64(base+hw.DMAAddr(i*e1000hw.RxDescSize), uint64(b))
	}
	n.rx = rxRing{descBase: base, buffers: bufs, count: count, lens: make([]int, 0, count)}
	n.writeReg(e1000hw.RegRDBAL, uint32(base))
	n.writeReg(e1000hw.RegRDLEN, count*e1000hw.RxDescSize)
	n.writeReg(e1000hw.RegRDH, 0)
	n.writeReg(e1000hw.RegRDT, count-1) // leave one-slot gap
	a.RxNextToClean = 0
	return nil
}

func (n *nucleus) freeTxResources(ctx *kernel.Context) {
	dma := n.drv.kern.Bus().DMA()
	if n.tx.descBase != 0 {
		_ = dma.Free(n.tx.descBase)
		for _, b := range n.tx.buffers {
			_ = dma.Free(b)
		}
		n.tx = txRing{}
	}
}

func (n *nucleus) freeRxResources(ctx *kernel.Context) {
	dma := n.drv.kern.Bus().DMA()
	if n.rx.descBase != 0 {
		_ = dma.Free(n.rx.descBase)
		for _, b := range n.rx.buffers {
			_ = dma.Free(b)
		}
		n.rx = rxRing{}
	}
}

// up enables the receiver and transmitter (e1000_up).
func (n *nucleus) up(ctx *kernel.Context) {
	n.writeReg(e1000hw.RegRCTL, e1000hw.RctlEN)
	n.writeReg(e1000hw.RegTCTL, e1000hw.TctlEN)
	n.writeReg(e1000hw.RegIMS, e1000hw.IntTXDW|e1000hw.IntLSC|e1000hw.IntRXT0)
}

// down quiesces the device (e1000_down).
func (n *nucleus) down(ctx *kernel.Context) {
	n.writeReg(e1000hw.RegIMC, ^uint32(0))
	n.writeReg(e1000hw.RegRCTL, 0)
	n.writeReg(e1000hw.RegTCTL, 0)
}

// requestIRQ installs the interrupt handler (kernel entry point).
func (n *nucleus) requestIRQ(ctx *kernel.Context) error {
	return n.drv.kern.RequestIRQ(n.drv.irq, n.irqName, n.intr, n.drv.Adapter)
}

func (n *nucleus) freeIRQ(ctx *kernel.Context) {
	_ = n.drv.kern.FreeIRQ(n.drv.irq, n.irqName)
}

// intr is the interrupt handler, a critical root: it must stay in the
// kernel (high priority, may not block).
func (n *nucleus) intr(ctx *kernel.Context, irq int, dev any) {
	a := dev.(*Adapter)
	icr := n.readReg(e1000hw.RegICR) // read clears
	if icr == 0 {
		return // not ours (shared line)
	}
	ctx.Charge(intrCost)
	a.IntrCount++
	if icr&e1000hw.IntTXDW != 0 {
		n.cleanTxIRQ(ctx)
	}
	if icr&e1000hw.IntRXT0 != 0 {
		n.cleanRxIRQ(ctx)
	}
	if icr&e1000hw.IntLSC != 0 {
		// Link changed: high-priority context cannot call the decaf
		// driver; defer the watchdog body to a work item (§3.1.3).
		n.drv.scheduleWatchdogWork()
	}
}

// cleanTxIRQ reclaims transmitted descriptors (e1000_clean_tx_irq).
func (n *nucleus) cleanTxIRQ(ctx *kernel.Context) {
	a := n.drv.Adapter
	n.txLock.Lock(ctx)
	defer n.txLock.Unlock(ctx)
	dma := n.drv.kern.Bus().DMA()
	for a.TxNextToClean != a.TxNextToUse {
		descAddr := n.tx.descBase + hw.DMAAddr(a.TxNextToClean*e1000hw.TxDescSize)
		status := dma.Read8(descAddr + e1000hw.DescStatusOff)
		if status&e1000hw.TxStatusDD == 0 {
			break
		}
		dma.Write8(descAddr+e1000hw.DescStatusOff, 0)
		a.TxNextToClean = (a.TxNextToClean + 1) % n.tx.count
	}
}

// cleanRxIRQ drains received frames into the stack (e1000_clean_rx_irq).
// The interrupt's whole burst is sized first, then copied out of the receive
// buffers into one data block behind one slab of packets: two allocations
// per interrupt however many frames it carries. Both are fresh every time,
// so a packet the stack keeps still owns its bytes (and keeps its burst's
// block alive with it) while the receive buffers go straight back to the
// hardware.
//
//decaf:hotpath
func (n *nucleus) cleanRxIRQ(ctx *kernel.Context) {
	a := n.drv.Adapter
	n.rxLock.Lock(ctx)
	dma := n.drv.kern.Bus().DMA()
	lens, total := n.rx.lens[:0], 0
	var wb [e1000hw.DescStatusOff + 1 - e1000hw.DescLengthOff]byte // length .. status
	for i := a.RxNextToClean; len(lens) < int(n.rx.count); i = (i + 1) % n.rx.count {
		dma.ReadInto(n.rx.descBase+hw.DMAAddr(i*e1000hw.RxDescSize)+e1000hw.DescLengthOff, wb[:])
		if wb[len(wb)-1]&e1000hw.RxStatusDD == 0 {
			break
		}
		length := int(binary.LittleEndian.Uint16(wb[:]))
		//decaf:allowalloc capacity is the ring size, fixed in setupRxResources, and the loop stops there
		lens = append(lens, length)
		total += length
	}
	if len(lens) == 0 {
		n.rxLock.Unlock(ctx)
		return
	}
	//decaf:allowalloc once per interrupt: the burst's bytes, fresh because the stack may keep any packet of it
	block := make([]byte, total)
	//decaf:allowalloc once per interrupt: the burst's packets, one slab for the same reason
	burst := make([]knet.Packet, len(lens))
	for j, length := range lens {
		i := a.RxNextToClean
		// Capped, so a sink that appends to one frame cannot reach the next.
		data := block[:length:length]
		block = block[length:]
		dma.ReadInto(n.rx.buffers[i], data)
		burst[j].Data = data
		dma.Write8(n.rx.descBase+hw.DMAAddr(i*e1000hw.RxDescSize)+e1000hw.DescStatusOff, 0)
		// Return the descriptor to the hardware.
		n.writeReg(e1000hw.RegRDT, i)
		a.RxNextToClean = (i + 1) % n.rx.count
		ctx.Charge(rxPacketCost)
		a.Stats.RxPackets++
		a.Stats.RxBytes += uint64(length)
	}
	n.rxLock.Unlock(ctx)
	n.drv.deliverRx(burst)
}

// xmitFrame is the hard_start_xmit path, a critical root.
//
//decaf:hotpath
func (n *nucleus) xmitFrame(ctx *kernel.Context, pkt *knet.Packet) error {
	a := n.drv.Adapter
	if n.tx.count == 0 {
		return fmt.Errorf("e1000: transmit on torn-down ring")
	}
	if len(pkt.Data) > RxBufferSize {
		a.Stats.TxErrors++
		return fmt.Errorf("e1000: frame of %d bytes exceeds buffer", len(pkt.Data))
	}
	n.txLock.Lock(ctx)
	next := (a.TxNextToUse + 1) % n.tx.count
	if next == a.TxNextToClean {
		n.txLock.Unlock(ctx)
		a.Stats.TxErrors++
		return fmt.Errorf("e1000: transmit ring full")
	}
	dma := n.drv.kern.Bus().DMA()
	i := a.TxNextToUse
	dma.Write(n.tx.buffers[i], pkt.Data)
	// Buffer address, length and command go out as one descriptor write; the
	// status byte behind them is the hardware's (and cleanTxIRQ's) to touch.
	var desc [e1000hw.DescStatusOff]byte
	binary.LittleEndian.PutUint64(desc[e1000hw.DescAddrOff:], uint64(n.tx.buffers[i]))
	binary.LittleEndian.PutUint16(desc[e1000hw.DescLengthOff:], uint16(len(pkt.Data)))
	desc[e1000hw.TxDescCmdOff] = e1000hw.TxCmdEOP | e1000hw.TxCmdRS
	dma.Write(n.tx.descBase+hw.DMAAddr(i*e1000hw.TxDescSize), desc[:])
	a.TxNextToUse = next
	a.Stats.TxPackets++
	a.Stats.TxBytes += uint64(len(pkt.Data))
	ctx.Charge(txPacketCost)
	tail := a.TxNextToUse
	n.txLock.Unlock(ctx)

	// Ring the doorbell outside the lock: the write synchronously triggers
	// transmission and the TXDW interrupt, whose handler takes the lock.
	n.writeReg(e1000hw.RegTDT, tail)
	return nil
}

// snapshotConfigSpace copies PCI configuration space into the adapter, the
// config_space array of Figure 3 (kernel entry point: PCI config access).
func (n *nucleus) snapshotConfigSpace(ctx *kernel.Context) {
	snap := n.drv.dev.PCI.ConfigSnapshot()
	copy(n.drv.Adapter.ConfigSpace[:], snap[:])
}
