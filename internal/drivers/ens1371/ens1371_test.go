package ens1371

import (
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/es1371hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ksound"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

type rig struct {
	clock *ktime.Clock
	kern  *kernel.Kernel
	snd   *ksound.Subsystem
	dev   *es1371hw.Device
	drv   *Driver
}

func newRig(t *testing.T, mode xpc.Mode) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 4<<20)
	kern := kernel.New(clock, bus)
	snd := ksound.New(kern)
	dev := es1371hw.New(bus, 5, 0xD000)
	drv := New(kern, snd, dev, 0xD000, Config{Mode: mode, IRQ: 5})
	return &rig{clock: clock, kern: kern, snd: snd, dev: dev, drv: drv}
}

func TestProbeInitializesCodecAndSRC(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		if r.drv.Chip.CodecVendor != 0x43525914 {
			t.Errorf("%v: CodecVendor = %#x", mode, r.drv.Chip.CodecVendor)
		}
		if got := r.dev.SRCReg(10); got != 0x8000|10 {
			t.Errorf("%v: SRC[10] = %#x", mode, got)
		}
		if card, ok := r.snd.Card("ens1371"); !ok || card.Controls() == 0 {
			t.Errorf("%v: card unregistered or no mixer controls", mode)
		}
	}
}

func TestDecafInitCrossingsMatchPaperOrder(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	rep, err := r.kern.LoadModule(r.drv.Module())
	if err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// Paper Table 3: 237 crossings; the SRC RAM walk alone is 128.
	if c.Trips() < 150 || c.Trips() > 300 {
		t.Fatalf("init crossings = %d, want ~150-300 (paper: 237)", c.Trips())
	}
	// ens1371 has the slowest decaf initialization in the paper (6.34 s).
	if rep.InitLatency < 3*time.Second {
		t.Fatalf("init latency = %v, expected multiple seconds", rep.InitLatency)
	}
}

func TestPlaybackLifecycle(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		card, _ := r.snd.Card("ens1371")
		ctx := r.kern.NewContext("mpg123")
		st, err := card.OpenPlayback(ctx)
		if err != nil {
			t.Fatalf("%v: open: %v", mode, err)
		}
		r.drv.AttachStream(st)
		if err := st.Configure(ctx, 44100, 2, 1024); err != nil {
			t.Fatalf("%v: configure: %v", mode, err)
		}
		// Write one period of PCM.
		pcm := make([]byte, 1024*4)
		for i := range pcm {
			pcm[i] = byte(i)
		}
		if _, err := st.Write(ctx, pcm); err != nil {
			t.Fatalf("%v: write: %v", mode, err)
		}
		if err := st.Start(ctx); err != nil {
			t.Fatalf("%v: start: %v", mode, err)
		}
		// One period at 44.1 kHz with 1024-frame periods = ~23.2 ms.
		r.clock.Advance(25 * time.Millisecond)
		if st.Periods() != 1 {
			t.Fatalf("%v: periods = %d after one period time", mode, st.Periods())
		}
		r.clock.Advance(100 * time.Millisecond)
		if st.Periods() < 4 {
			t.Fatalf("%v: periods = %d after 125ms", mode, st.Periods())
		}
		if err := st.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		consumed := r.dev.Consumed()
		r.clock.Advance(time.Second)
		if r.dev.Consumed() != consumed {
			t.Fatalf("%v: device consumed samples after stop", mode)
		}
		if err := st.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlaybackStartEndCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	r.drv.Runtime().ResetCounters()
	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("mpg123")
	st, _ := card.OpenPlayback(ctx)
	r.drv.AttachStream(st)
	_ = st.Configure(ctx, 44100, 2, 1024)
	_ = st.Start(ctx)
	startCrossings := r.drv.Runtime().Counters().Trips()

	// Steady-state playback: periods elapse with zero crossings.
	pcm := make([]byte, 1024*4)
	for i := 0; i < 40; i++ {
		_, _ = st.Write(ctx, pcm)
		r.clock.Advance(24 * time.Millisecond)
	}
	mid := r.drv.Runtime().Counters().Trips()
	if mid != startCrossings {
		t.Fatalf("steady-state playback crossed %d times", mid-startCrossings)
	}
	_ = st.Stop(ctx)
	_ = st.Close(ctx)
	total := r.drv.Runtime().Counters().Trips()
	// Paper §4.2: "the decaf driver was called 15 times, all during
	// playback start and end". Accept the same order.
	if total < 8 || total > 30 {
		t.Fatalf("playback start+end crossings = %d, want ~8-30 (paper: 15)", total)
	}
}

func TestUnsupportedRateThrows(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("t")
	st, _ := card.OpenPlayback(ctx)
	if err := st.Configure(ctx, 12345, 2, 1024); err == nil {
		t.Fatal("unsupported rate accepted")
	}
}

func TestCardMutexNotSpinlock(t *testing.T) {
	// The §3.1.3 point: PCM callbacks run under a mutex, so the decaf
	// upcall inside Trigger is legal. Under a spinlock it would fault.
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("t")
	st, err := card.OpenPlayback(ctx) // upcall under the card mutex
	if err != nil {
		t.Fatal(err)
	}
	if ctx.InAtomic() {
		t.Fatal("context atomic after mutex-protected upcall")
	}
	_ = st.Close(ctx)
}

func TestInterruptAdvancesPosition(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	card, _ := r.snd.Card("ens1371")
	ctx := r.kern.NewContext("t")
	st, _ := card.OpenPlayback(ctx)
	r.drv.AttachStream(st)
	_ = st.Configure(ctx, 44100, 2, 512)
	_ = st.Start(ctx)
	r.clock.Advance(200 * time.Millisecond)
	if r.drv.Chip.IntrCount == 0 {
		t.Fatal("no period interrupts")
	}
	if r.dev.Consumed() == 0 {
		t.Fatal("device consumed nothing")
	}
	_ = st.Stop(ctx)
}

// The test-only body below names the control one past the end of the
// table, as a compromised worker could.
func init() {
	registry.Register("ens1371_test_ctl_add_out_of_range", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, err := c.Downcall("snd_ctl_add", uint64(len(ctlNames)))
			return err
		},
	})
}

// TestCtlAddRejectsOutOfRangeIndex: snd_ctl_add takes its index from the
// untrusted side, so an index past the control table is an error — not a
// crash in the kernel-side target — and adds no control.
func TestCtlAddRejectsOutOfRangeIndex(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	card, _ := r.snd.Card("ens1371")
	before := card.Controls()
	err := r.drv.Runtime().UpcallHandler(r.kern.NewContext("t"), "ens1371_test_ctl_add_out_of_range")
	if err == nil || xpc.IsUserFault(err) {
		t.Fatalf("out-of-range snd_ctl_add = %v, want a plain error (not accepted, not a crash)", err)
	}
	if card.Controls() != before {
		t.Fatalf("controls = %d after a rejected add, want %d", card.Controls(), before)
	}
}
