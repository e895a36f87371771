//go:build !unix

package xpc

import (
	"errors"

	"decafdrivers/internal/kernel"
)

// The process-separated transport needs socketpairs, mmap shared memory and
// POSIX process control; on other platforms the constructor reports the
// gap and callers fall back to the in-process transports.

// DefaultProcShmBytes mirrors the unix constant for configuration code.
const DefaultProcShmBytes = 8 << 20

// DefaultProcLanes mirrors the unix constant for configuration code.
const DefaultProcLanes = 8

// MaxProcLanes mirrors the unix constant for configuration code.
const MaxProcLanes = 64

// DefaultTraceEntries mirrors the unix constant for configuration code.
const DefaultTraceEntries = 4096

// MaxTraceEntries mirrors the unix constant for configuration code.
const MaxTraceEntries = 1 << 15

// ProcConfig sizes a ProcTransport (unsupported on this platform).
type ProcConfig struct {
	Batch        int
	Lanes        int
	TraceEntries int
}

// ProcTransport is unavailable on this platform; NewProcTransport reports
// the gap. The type still satisfies Transport so configuration code that
// handles the constructor error compiles unchanged everywhere.
type ProcTransport struct{}

// ErrProcUnsupported rejects NewProcTransport where real process
// separation is unavailable.
var ErrProcUnsupported = errors.New("xpc: process-separated transport requires a unix platform")

// NewProcTransport fails: no socketpair/mmap support here.
func NewProcTransport(ProcConfig) (*ProcTransport, error) {
	return nil, ErrProcUnsupported
}

// Name implements Transport.
func (*ProcTransport) Name() string { return "proc(unsupported)" }

// MaxBatch implements Transport.
func (*ProcTransport) MaxBatch() int { return 1 }

// Lanes mirrors the unix accessor; no transport exists here.
func (*ProcTransport) Lanes() int { return 0 }

// ControlAcquires mirrors the unix accessor; no transport exists here.
func (*ProcTransport) ControlAcquires() uint64 { return 0 }

// CrossChunk mirrors the unix boundary hook; unreachable here.
func (*ProcTransport) CrossChunk(*Runtime, *kernel.Context, []*Submission) error {
	return ErrProcUnsupported
}

// Submit implements Transport: unreachable (the constructor never hands
// out an instance), kept so the type satisfies the interface.
func (*ProcTransport) Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error {
	r.Admit(subs)
	for _, sub := range subs {
		sub.Completion.resolve(ErrProcUnsupported, false, 0)
	}
	return ErrProcUnsupported
}

// MaybeRunWorker is a no-op where the worker mode does not exist.
func MaybeRunWorker() {}
