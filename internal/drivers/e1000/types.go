// Package e1000 is the Decaf conversion of the Intel E1000 gigabit Ethernet
// driver, the paper's case-study driver (§5). The driver nucleus keeps the
// data path (interrupt handler, transmit, ring cleaning) in the kernel; the
// decaf driver holds probe, open/close, PHY and EEPROM management, parameter
// validation and the watchdog, written in exception style (Figures 4 and 5).
// Every decaf body is a handler-table entry (handlers.go, decaf.go) that
// reaches the device only through scalar downcalls and reports back through
// state cells, so under the proc transport all of it runs in the worker.
package e1000

import (
	"decafdrivers/internal/xdr"
)

// HWException is the checked exception class the decaf driver throws, the
// analogue of the case study's E1000HWException.
const HWException = "E1000HWException"

// Ring geometry defaults (the module parameters' defaults).
const (
	DefaultTxRing = 256
	DefaultRxRing = 256
	MaxRing       = 4096
	MinRing       = 80
	RxBufferSize  = 2048
)

// EEPROMWords is the size of the adapter's EEPROM shadow.
const EEPROMWords = 64

// ConfigWords is the saved PCI configuration space in dwords — the
// config_space array with the exp(PCI_LEN) annotation from Figure 3.
const ConfigWords = 64

// NetStats are the interface counters kept in the adapter and read by the
// decaf watchdog.
type NetStats struct {
	TxPackets uint64
	TxBytes   uint64
	RxPackets uint64
	RxBytes   uint64
	TxErrors  uint64
	RxErrors  uint64
	RxDropped uint64
}

// Adapter is the e1000_adapter analogue. It lives kernel-side: the nucleus
// uses it directly, and what the decaf bodies learn is recorded into it by
// the downcall targets and adopted from the cells. Kernel-only operational
// fields (ring cursors, IRQ bookkeeping) are excluded from marshaling by
// FieldMask, the field-level customization of §2.3, for a harness that
// shares the adapter to measure object sync.
type Adapter struct {
	// Identity and configuration, learned by the decaf driver.
	Name        string
	MAC         [6]byte
	MsgEnable   int32
	Mtu         int32
	FlowControl uint32
	PhyID       uint32
	EEPROM      [EEPROMWords]uint16
	ConfigSpace [ConfigWords]uint32
	TxRingSize  uint32
	RxRingSize  uint32

	// Link state and statistics. The decaf watchdog's own pass count and
	// the decaf data path's frame counters are not adapter fields: they are
	// shared state cells (handlers.go) readable from both processes.
	LinkUp bool
	Stats  NetStats

	// Kernel-only data-path state (masked out of marshaling).
	TxNextToUse   uint32
	TxNextToClean uint32
	RxNextToClean uint32
	IntrCount     uint64
}

// FieldMask is the marshaling specification DriverSlicer generates for the
// adapter: only decaf-accessed fields cross domains.
func FieldMask() xdr.FieldMask {
	return xdr.FieldMask{
		"Adapter": {
			"Name": true, "MAC": true, "MsgEnable": true, "Mtu": true,
			"FlowControl": true, "PhyID": true, "EEPROM": true,
			"ConfigSpace": true, "TxRingSize": true, "RxRingSize": true,
			"LinkUp": true, "Stats": true,
		},
	}
}
