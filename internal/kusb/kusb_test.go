package kusb

import (
	"errors"
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
)

type fakeHCD struct {
	urbs []*URB
	err  error
}

func (f *fakeHCD) Enqueue(ctx *kernel.Context, urb *URB) error {
	if f.err != nil {
		return f.err
	}
	f.urbs = append(f.urbs, urb)
	return nil
}

func newCore(t *testing.T) (*Core, *kernel.Kernel) {
	t.Helper()
	clock := ktime.NewClock()
	k := kernel.New(clock, hw.NewBus(clock, 1<<16))
	return New(), k
}

func TestHCDRegistration(t *testing.T) {
	c, _ := newCore(t)
	h := &fakeHCD{}
	if err := c.RegisterHCD("uhci", h); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterHCD("uhci", h); err == nil {
		t.Fatal("duplicate HCD accepted")
	}
	got, ok := c.HCDByName("uhci")
	if !ok || got != HCD(h) {
		t.Fatal("HCDByName failed")
	}
	if err := c.UnregisterHCD("uhci"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterHCD("uhci"); err == nil {
		t.Fatal("double unregister accepted")
	}
}

func TestSubmitRouting(t *testing.T) {
	c, k := newCore(t)
	h := &fakeHCD{}
	_ = c.RegisterHCD("uhci", h)
	ctx := k.NewContext("t")
	urb := &URB{Endpoint: 2, Dir: DirOut, Data: make([]byte, 64)}
	if err := c.SubmitURB(ctx, "uhci", urb); err != nil {
		t.Fatal(err)
	}
	if len(h.urbs) != 1 || h.urbs[0] != urb {
		t.Fatal("URB not routed")
	}
	if err := c.SubmitURB(ctx, "ohci", urb); err == nil {
		t.Fatal("unknown HCD accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	c, k := newCore(t)
	_ = c.RegisterHCD("uhci", &fakeHCD{})
	ctx := k.NewContext("t")
	if err := c.SubmitURB(ctx, "uhci", nil); err == nil {
		t.Fatal("nil URB accepted")
	}
	if err := c.SubmitURB(ctx, "uhci", &URB{Dir: DirOut}); err == nil {
		t.Fatal("empty OUT URB accepted")
	}
}

func TestSubmitPropagatesHCDError(t *testing.T) {
	c, k := newCore(t)
	boom := errors.New("pipe stall")
	_ = c.RegisterHCD("uhci", &fakeHCD{err: boom})
	err := c.SubmitURB(k.NewContext("t"), "uhci", &URB{Dir: DirOut, Data: []byte{1}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
