package ksound

import (
	"errors"
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
)

type fakePCM struct {
	opens, closes, prepares int
	triggered               []bool
	rate, channels, period  int
	copied                  []byte
	openErr                 error
	mayBlockInOps           bool
}

func (f *fakePCM) Open(ctx *kernel.Context) error {
	f.opens++
	f.mayBlockInOps = ctx.MayBlock()
	return f.openErr
}
func (f *fakePCM) HWParams(ctx *kernel.Context, rate, ch, period int) error {
	f.rate, f.channels, f.period = rate, ch, period
	return nil
}
func (f *fakePCM) Prepare(ctx *kernel.Context) error { f.prepares++; return nil }
func (f *fakePCM) Trigger(ctx *kernel.Context, start bool) error {
	f.triggered = append(f.triggered, start)
	return nil
}
func (f *fakePCM) Pointer(ctx *kernel.Context) uint32 { return 0 }
func (f *fakePCM) CopyAudio(ctx *kernel.Context, off uint32, data []byte) error {
	f.copied = append(f.copied, data...)
	return nil
}
func (f *fakePCM) Close(ctx *kernel.Context) error { f.closes++; return nil }

func newSnd(t *testing.T) (*Subsystem, *kernel.Kernel) {
	t.Helper()
	clock := ktime.NewClock()
	k := kernel.New(clock, hw.NewBus(clock, 1<<16))
	return New(), k
}

func TestCardRegistration(t *testing.T) {
	s, _ := newSnd(t)
	c := s.NewCard("ens1371")
	if err := s.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(c); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, ok := s.Card("ens1371")
	if !ok || got != c {
		t.Fatal("Card lookup failed")
	}
	if err := s.Unregister("ens1371"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("ens1371"); err == nil {
		t.Fatal("double unregister accepted")
	}
}

func TestMixerControls(t *testing.T) {
	s, _ := newSnd(t)
	c := s.NewCard("x")
	c.AddControl()
	c.AddControl()
	if c.Controls() != 2 {
		t.Fatalf("Controls = %d", c.Controls())
	}
}

func TestPlaybackLifecycle(t *testing.T) {
	s, k := newSnd(t)
	c := s.NewCard("x")
	pcm := &fakePCM{}
	c.SetPCMOps(pcm)
	ctx := k.NewContext("t")

	st, err := c.OpenPlayback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pcm.opens != 1 {
		t.Fatal("Open not called")
	}
	// §3.1.3: the callback ran under a mutex, not a spinlock, so it could
	// have blocked (performed an XPC).
	if !pcm.mayBlockInOps {
		t.Fatal("PCM callback ran in atomic context")
	}
	// Only one stream at a time.
	if _, err := c.OpenPlayback(ctx); err == nil {
		t.Fatal("second open accepted")
	}
	if err := st.Configure(ctx, 44100, 2, 1024); err != nil {
		t.Fatal(err)
	}
	if pcm.rate != 44100 || pcm.channels != 2 || pcm.period != 1024 || pcm.prepares != 1 {
		t.Fatalf("params = %+v", pcm)
	}
	if err := st.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if len(pcm.triggered) != 1 || !pcm.triggered[0] {
		t.Fatalf("triggers after Start = %v, want one start", pcm.triggered)
	}
	n, err := st.Write(ctx, make([]byte, 400))
	if err != nil || n != 400 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if len(pcm.copied) != 400 {
		t.Fatal("CopyAudio not reached")
	}
	st.PeriodElapsed()
	st.PeriodElapsed()
	if st.Periods() != 2 {
		t.Fatalf("Periods = %d", st.Periods())
	}
	if err := st.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if len(pcm.triggered) != 2 || pcm.triggered[1] {
		t.Fatalf("triggers after Stop = %v, want a start then a stop", pcm.triggered)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if pcm.closes != 1 {
		t.Fatal("Close not called")
	}
	// Stream slot is free again.
	if _, err := c.OpenPlayback(ctx); err != nil {
		t.Fatal("reopen after close failed")
	}
}

func TestOpenFailures(t *testing.T) {
	s, k := newSnd(t)
	c := s.NewCard("x")
	ctx := k.NewContext("t")
	if _, err := c.OpenPlayback(ctx); err == nil {
		t.Fatal("open without PCM ops accepted")
	}
	c.SetPCMOps(&fakePCM{openErr: errors.New("codec dead")})
	if _, err := c.OpenPlayback(ctx); err == nil {
		t.Fatal("driver open failure swallowed")
	}
}

func TestWriteWithoutConfigureFails(t *testing.T) {
	s, k := newSnd(t)
	c := s.NewCard("x")
	c.SetPCMOps(&fakePCM{})
	ctx := k.NewContext("t")
	st, _ := c.OpenPlayback(ctx)
	if _, err := st.Write(ctx, make([]byte, 64)); err == nil {
		t.Fatal("write on unconfigured stream accepted")
	}
}
