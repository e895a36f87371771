package kernel

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"decafdrivers/internal/hw"
)

// IRQHandlerFunc is a driver interrupt handler. It runs in hard-IRQ context:
// the passed Context reports InIRQ() and may not block. dev is the opaque
// cookie registered with RequestIRQ (the driver's adapter structure).
type IRQHandlerFunc func(ctx *Context, irq int, dev any)

// IRQCost is the fixed virtual CPU overhead of entering and exiting an
// interrupt handler (vector dispatch, register save/restore, EOI).
const IRQCost = 2 * time.Microsecond

type irqAction struct {
	name    string
	handler IRQHandlerFunc
	dev     any
}

type irqState struct {
	line *hw.IRQLine
	// actions is replaced, never edited in place, when a handler comes or
	// goes: dispatchIRQ runs the handlers outside the table lock from the
	// slice it found, with no copy per interrupt.
	actions []*irqAction
	ctx     *Context
}

// irqTable maps interrupt numbers to their registered actions.
type irqTable struct {
	mu    sync.Mutex
	byNum map[int]*irqState
}

func (k *Kernel) irqs() *irqTable { return k.irqTable }

// RequestIRQ installs handler on the given interrupt number, the analogue of
// request_irq. The handler runs synchronously whenever the underlying
// hardware line asserts, in a dedicated hard-IRQ context. Multiple handlers
// may share a line (IRQF_SHARED); each is invoked in registration order.
func (k *Kernel) RequestIRQ(num int, name string, handler IRQHandlerFunc, dev any) error {
	if handler == nil {
		return fmt.Errorf("kernel: RequestIRQ(%d) with nil handler", num)
	}
	t := k.irqs()
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.byNum[num]
	if !ok {
		line := k.bus.IRQ(num)
		st = &irqState{line: line, ctx: k.NewContext(fmt.Sprintf("irq/%d", num))}
		t.byNum[num] = st
		line.SetHandler(func() { k.dispatchIRQ(num) })
	}
	st.actions = append(slices.Clip(st.actions), &irqAction{name: name, handler: handler, dev: dev})
	return nil
}

// FreeIRQ removes the handler registered under name on the given interrupt
// number, the analogue of free_irq.
func (k *Kernel) FreeIRQ(num int, name string) error {
	t := k.irqs()
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.byNum[num]
	if !ok {
		return fmt.Errorf("kernel: FreeIRQ(%d): no handlers", num)
	}
	for i, a := range st.actions {
		if a.name == name {
			st.actions = append(st.actions[:i:i], st.actions[i+1:]...)
			if len(st.actions) == 0 {
				st.line.SetHandler(nil)
				delete(t.byNum, num)
			}
			return nil
		}
	}
	return fmt.Errorf("kernel: FreeIRQ(%d): handler %q not registered", num, name)
}

func (k *Kernel) dispatchIRQ(num int) {
	t := k.irqs()
	t.mu.Lock()
	st, ok := t.byNum[num]
	if !ok {
		t.mu.Unlock()
		return
	}
	actions := st.actions
	ctx := st.ctx
	t.mu.Unlock()

	ctx.enterIRQ()
	ctx.Charge(IRQCost)
	defer ctx.exitIRQ()
	for _, a := range actions {
		a.handler(ctx, num, a.dev)
	}
}

// DisableIRQ masks the interrupt line, the analogue of disable_irq. The
// Decaf nuclear runtime calls this while the decaf driver runs so the driver
// cannot interrupt itself (paper §3.1.3).
func (k *Kernel) DisableIRQ(num int) { k.bus.IRQ(num).Disable() }

// EnableIRQ unmasks the interrupt line, delivering any latched assert.
func (k *Kernel) EnableIRQ(num int) { k.bus.IRQ(num).Enable() }
