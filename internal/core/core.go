// Package core assembles a complete Decaf Drivers system — the paper's
// primary contribution wired together: a simulated machine (virtual clock,
// bus, kernel), the four driver-facing kernel subsystems, and a factory for
// per-driver XPC runtimes. Drivers, workloads, examples and benchmarks all
// build on a core.System.
package core

import (
	"fmt"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/kinput"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ksound"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/kusb"
	"decafdrivers/internal/xpc"
)

// Options configures a System.
type Options struct {
	// DMABytes sizes the DMA-visible arena (default 16 MiB).
	DMABytes int
}

// System is one booted simulated machine hosting any number of Decaf
// drivers.
type System struct {
	Clock  *ktime.Clock
	Bus    *hw.Bus
	Kernel *kernel.Kernel

	Net   *knet.Subsystem
	Snd   *ksound.Subsystem
	USB   *kusb.Core
	Input *kinput.Subsystem

	runtimes map[string]*xpc.Runtime
}

// NewSystem boots a machine with every subsystem available.
func NewSystem(opts Options) *System {
	if opts.DMABytes == 0 {
		opts.DMABytes = 16 << 20
	}
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, opts.DMABytes)
	k := kernel.New(clock, bus)
	return &System{
		Clock:    clock,
		Bus:      bus,
		Kernel:   k,
		Net:      knet.New(),
		Snd:      ksound.New(),
		USB:      kusb.New(),
		Input:    kinput.New(),
		runtimes: make(map[string]*xpc.Runtime),
	}
}

// AdoptRuntime records an externally created driver runtime so the system
// can aggregate its counters. Drivers that build their own runtime (the
// five converted drivers do) are adopted by their harness.
func (s *System) AdoptRuntime(driver string, rt *xpc.Runtime) error {
	if _, dup := s.runtimes[driver]; dup {
		return fmt.Errorf("core: runtime for %q already exists", driver)
	}
	s.runtimes[driver] = rt
	return nil
}

// TotalCrossings sums user/kernel trips across every driver on the machine.
func (s *System) TotalCrossings() uint64 {
	var n uint64
	for _, rt := range s.runtimes {
		n += rt.Counters().Trips()
	}
	return n
}

// DrainDeferredWork drains the kernel's default work queue and advances
// virtual time by the stall the deferred work imposed (the decaf watchdog
// path).
func (s *System) DrainDeferredWork() {
	wq := s.Kernel.DefaultWorkqueue()
	before := wq.WorkerContext().Elapsed()
	if wq.Drain() > 0 {
		if d := wq.WorkerContext().Elapsed() - before; d > 0 {
			s.Clock.Advance(d)
		}
	}
}
