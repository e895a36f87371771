package ps2hw

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kinput"
	"decafdrivers/internal/ktime"
)

type harness struct {
	mouse *Mouse
	port  *kinput.SerioPort
	recv  []byte
	irqs  int
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	bus := hw.NewBus(ktime.NewClock(), 1<<16)
	h := &harness{port: kinput.NewSerioPort()}
	line := bus.IRQ(12)
	line.SetHandler(func() { h.irqs++ })
	h.port.ConnectDriver(func(b byte) { h.recv = append(h.recv, b) })
	h.mouse = New(h.port, line)
	return h
}

func (h *harness) cmd(t *testing.T, b byte) []byte {
	t.Helper()
	h.recv = nil
	if err := h.port.Write(b); err != nil {
		t.Fatal(err)
	}
	return h.recv
}

func TestResetSequence(t *testing.T) {
	h := newHarness(t)
	resp := h.cmd(t, CmdReset)
	want := []byte{RespAck, RespSelfTestOK, IDStandard}
	if len(resp) != len(want) {
		t.Fatalf("reset response = %v", resp)
	}
	for i := range want {
		if resp[i] != want[i] {
			t.Fatalf("reset response = %v, want %v", resp, want)
		}
	}
	if h.irqs != 3 {
		t.Fatalf("irqs = %d, want one per byte", h.irqs)
	}
}

func TestIntelliMouseKnock(t *testing.T) {
	h := newHarness(t)
	h.cmd(t, CmdReset)
	if h.mouse.id != IDStandard {
		t.Fatal("fresh mouse not standard")
	}
	for _, rate := range []byte{200, 100, 80} {
		if r := h.cmd(t, CmdSetRate); r[0] != RespAck {
			t.Fatal("set-rate not acked")
		}
		if r := h.cmd(t, rate); r[0] != RespAck {
			t.Fatal("rate argument not acked")
		}
	}
	resp := h.cmd(t, CmdGetID)
	if resp[0] != RespAck || resp[1] != IDIntelliMouse {
		t.Fatalf("post-knock id = %v", resp)
	}
	// Reset reverts to standard.
	h.cmd(t, CmdReset)
	if h.mouse.id != IDStandard {
		t.Fatal("reset did not revert id")
	}
}

func TestWrongKnockNoUpgrade(t *testing.T) {
	h := newHarness(t)
	for _, rate := range []byte{200, 200, 80} { // explorer knock, not im
		h.cmd(t, CmdSetRate)
		h.cmd(t, rate)
	}
	if h.mouse.id != IDStandard {
		t.Fatal("wrong knock upgraded the mouse")
	}
}

func TestMovementReports(t *testing.T) {
	h := newHarness(t)
	h.cmd(t, CmdReset)
	if h.mouse.Move(1, 1, false, false) {
		t.Fatal("movement before enable")
	}
	h.cmd(t, CmdEnable)
	if !h.mouse.Reporting() {
		t.Fatal("enable failed")
	}
	h.recv = nil
	if !h.mouse.Move(5, -3, true, false) {
		t.Fatal("movement rejected")
	}
	if len(h.recv) != 3 {
		t.Fatalf("report = %v", h.recv)
	}
	flags := h.recv[0]
	if flags&0x08 == 0 {
		t.Fatal("always-one bit clear")
	}
	if flags&0x01 == 0 {
		t.Fatal("left button bit clear")
	}
	if flags&0x20 == 0 {
		t.Fatal("negative-y sign bit clear")
	}
	if int8(h.recv[1]) != 5 || int8(h.recv[2]) != -3 {
		t.Fatalf("deltas = %d, %d", int8(h.recv[1]), int8(h.recv[2]))
	}
	h.cmd(t, CmdDisable)
	if h.mouse.Move(1, 1, false, false) {
		t.Fatal("movement after disable")
	}
}

func TestSetResolutionArg(t *testing.T) {
	h := newHarness(t)
	if r := h.cmd(t, CmdSetResolution); r[0] != RespAck {
		t.Fatal("set-res not acked")
	}
	if r := h.cmd(t, 3); r[0] != RespAck {
		t.Fatal("res argument not acked")
	}
}
