package kernel

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

// Kernel is the simulated operating-system kernel. It owns the virtual
// clock, the hardware bus, module bookkeeping, work queues and CPU
// accounting. One Kernel corresponds to one booted machine in the paper's
// testbed.
type Kernel struct {
	clock *ktime.Clock
	bus   *hw.Bus

	mu      sync.Mutex
	modules map[string]Module

	accounting *CPUAccounting

	defaultWQ *Workqueue
	irqTable  *irqTable
}

// New boots a simulated kernel around the given clock and bus.
func New(clock *ktime.Clock, bus *hw.Bus) *Kernel {
	k := &Kernel{
		clock:      clock,
		bus:        bus,
		modules:    make(map[string]Module),
		accounting: &CPUAccounting{},
		irqTable:   &irqTable{byNum: make(map[int]*irqState)},
	}
	k.defaultWQ = k.NewWorkqueue("events")
	return k
}

// Clock returns the kernel's virtual clock.
func (k *Kernel) Clock() *ktime.Clock { return k.clock }

// Bus returns the hardware bus.
func (k *Kernel) Bus() *hw.Bus { return k.bus }

// Accounting returns the global CPU-time accounting.
func (k *Kernel) Accounting() *CPUAccounting { return k.accounting }

// DefaultWorkqueue returns the kernel's shared "events" work queue, the
// analogue of schedule_work.
func (k *Kernel) DefaultWorkqueue() *Workqueue { return k.defaultWQ }

// Oops reports a kernel fault: a violated invariant such as sleeping in
// atomic context. It panics with the fault, so the faulting path fails
// loudly.
func (k *Kernel) Oops(err error) {
	panic(err)
}

// CPUAccounting accumulates charged CPU time by context kind. The Table 3
// CPU-utilization column is busy time divided by elapsed virtual time.
type CPUAccounting struct {
	mu      sync.Mutex
	process time.Duration
	softirq time.Duration
	hardirq time.Duration
}

// Charge accounts d of CPU time to kind without advancing any context's
// timeline: for work whose elapsed time a caller accounts itself, as when a
// body that ran in another process is charged by whichever goroutine
// resolves it. Safe for concurrent use.
func (a *CPUAccounting) Charge(kind ContextKind, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch kind {
	case CtxProcess:
		a.process += d
	case CtxSoftIRQ:
		a.softirq += d
	case CtxHardIRQ:
		a.hardirq += d
	}
}

// Totals reports accumulated CPU time per context kind.
func (a *CPUAccounting) Totals() (process, softirq, hardirq time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.process, a.softirq, a.hardirq
}

// Busy reports the total accumulated CPU time.
func (a *CPUAccounting) Busy() time.Duration {
	p, s, h := a.Totals()
	return p + s + h
}

// Module is a loadable kernel module — in Decaf terms, a driver nucleus
// (plus its registration glue).
type Module interface {
	// ModuleName is the module's unique name.
	ModuleName() string
	// Init is the module's init_module entry, run in process context.
	Init(ctx *Context) error
	// Exit is the module's cleanup_module entry.
	Exit(ctx *Context)
}

// LoadReport describes one insmod: the paper's Table 3 init-latency metric.
type LoadReport struct {
	// InitLatency is the elapsed virtual time of Init — what the paper
	// measures as "latency to run the insmod module loader".
	InitLatency time.Duration
	// InitBusy is the CPU portion of InitLatency.
	InitBusy time.Duration
}

// LoadModule runs m.Init in a fresh process context and records the module.
// It returns a report with the init latency in virtual time.
func (k *Kernel) LoadModule(m Module) (LoadReport, error) {
	k.mu.Lock()
	if _, dup := k.modules[m.ModuleName()]; dup {
		k.mu.Unlock()
		return LoadReport{}, fmt.Errorf("kernel: module %q already loaded", m.ModuleName())
	}
	k.mu.Unlock()

	ctx := k.NewContext("insmod:" + m.ModuleName())
	if err := m.Init(ctx); err != nil {
		return LoadReport{}, fmt.Errorf("kernel: init of %q failed: %w", m.ModuleName(), err)
	}
	rep := LoadReport{
		InitLatency: ctx.Elapsed(),
		InitBusy:    ctx.Busy(),
	}
	k.mu.Lock()
	k.modules[m.ModuleName()] = m
	k.mu.Unlock()
	return rep, nil
}

// UnloadModule runs the module's Exit and forgets it.
func (k *Kernel) UnloadModule(name string) error {
	k.mu.Lock()
	m, ok := k.modules[name]
	if !ok {
		k.mu.Unlock()
		return fmt.Errorf("kernel: module %q not loaded", name)
	}
	delete(k.modules, name)
	k.mu.Unlock()
	ctx := k.NewContext("rmmod:" + name)
	m.Exit(ctx)
	return nil
}

// LoadedModules lists loaded module names in sorted order.
func (k *Kernel) LoadedModules() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	names := make([]string, 0, len(k.modules))
	for n := range k.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
