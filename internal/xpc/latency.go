package xpc

import (
	"time"

	"decafdrivers/internal/kernel"
)

// LatencyModel prices one crossing leg: a fixed scheduling/transition cost
// plus a per-byte marshaling cost. The defaults are calibrated so that the
// five drivers' simulated initialization latencies land in the range the
// paper measures in Table 3 (15–50 ms per call/return trip, depending on
// how large the marshaled driver structures are; see EXPERIMENTS.md).
type LatencyModel struct {
	// KernelUserBase is the scheduling + protection-domain transition cost
	// of one kernel/user call/return trip.
	KernelUserBase time.Duration
	// CJavaBase is the JNI-transition cost of one C/Java call/return trip.
	CJavaBase time.Duration
	// PerByte is the CPU cost of marshaling plus unmarshaling one byte of
	// structured data (reflection-driven XDR walk).
	PerByte time.Duration
	// PerByteData is the CPU cost of transferring one byte of opaque
	// payload (packet data): a straight copy with no reflection walk, the
	// direct data transfer of §4.2.
	PerByteData time.Duration
}

// DefaultLatencyModel is the calibrated model used by all experiments.
var DefaultLatencyModel = LatencyModel{
	KernelUserBase: 22 * time.Millisecond,
	CJavaBase:      3 * time.Millisecond,
	PerByte:        2500 * time.Nanosecond,
	PerByteData:    2 * time.Nanosecond,
}

// ZeroLatencyModel charges nothing; useful for isolating logic in tests.
var ZeroLatencyModel = LatencyModel{}

// chargeTrip accounts the control-transfer cost of one call/return trip —
// the kernel/user transition plus the C/Java transition — as blocked time on
// the calling context. It is charged once per single-call crossing, upcall
// or downcall, regardless of how many bytes travel.
func (m LatencyModel) chargeTrip(ctx *kernel.Context) {
	if base := m.KernelUserBase + m.CJavaBase; base > 0 {
		ctx.Sleep(base)
	}
}

// chargeBatchTrip accounts the control-transfer cost of one batched crossing
// carrying n calls: the kernel/user transition is paid once for the whole
// batch — the §4.2 batching optimization — while the C/Java transition is
// still paid per call.
func (m LatencyModel) chargeBatchTrip(ctx *kernel.Context, n int) {
	if base := m.KernelUserBase + time.Duration(n)*m.CJavaBase; base > 0 {
		ctx.Sleep(base)
	}
}

// chargeMarshal accounts the CPU cost of marshaling plus unmarshaling one
// leg's payload.
func (m LatencyModel) chargeMarshal(ctx *kernel.Context, bytes int) {
	if bytes > 0 && m.PerByte > 0 {
		ctx.Charge(time.Duration(bytes) * m.PerByte)
	}
}

// chargeData accounts the CPU cost of one leg of opaque payload transfer.
func (m LatencyModel) chargeData(ctx *kernel.Context, bytes int) {
	if bytes > 0 && m.PerByteData > 0 {
		ctx.Charge(time.Duration(bytes) * m.PerByteData)
	}
}
