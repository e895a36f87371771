package kinput

import (
	"testing"
)

func newInput(t *testing.T) *Subsystem {
	t.Helper()
	return New()
}

func TestDeviceRegistration(t *testing.T) {
	s := newInput(t)
	d, err := s.Register("psmouse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("psmouse"); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, ok := s.Device("psmouse")
	if !ok || got != d {
		t.Fatal("Device lookup failed")
	}
	if err := s.Unregister("psmouse"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("psmouse"); err == nil {
		t.Fatal("double unregister accepted")
	}
}

func TestEventDelivery(t *testing.T) {
	s := newInput(t)
	d, _ := s.Register("psmouse")
	var got []Event
	d.SetSink(func(e Event) { got = append(got, e) })
	d.ReportRel("REL_X", 5)
	d.ReportKey("BTN_LEFT", 1)
	d.Sync()
	if len(got) != 2 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Type != "rel" || got[0].Code != "REL_X" || got[0].Value != 5 {
		t.Fatalf("event[0] = %+v", got[0])
	}
	if got[1].Type != "key" || got[1].Code != "BTN_LEFT" {
		t.Fatalf("event[1] = %+v", got[1])
	}
	ev, syncs := d.Counts()
	if ev != 2 || syncs != 1 {
		t.Fatalf("counts = %d, %d", ev, syncs)
	}
}

func TestEventsWithoutSinkCounted(t *testing.T) {
	s := newInput(t)
	d, _ := s.Register("psmouse")
	d.ReportRel("REL_Y", -3) // no sink attached: counted, not delivered
	ev, _ := d.Counts()
	if ev != 1 {
		t.Fatalf("events = %d", ev)
	}
}

func TestSerioPort(t *testing.T) {
	p := NewSerioPort()
	if err := p.Write(0xFF); err == nil {
		t.Fatal("write to unconnected port accepted")
	}
	var toDevice, toDriver []byte
	p.ConnectDevice(func(b byte) { toDevice = append(toDevice, b) })
	p.ConnectDriver(func(b byte) { toDriver = append(toDriver, b) })
	if err := p.Write(0xF4); err != nil {
		t.Fatal(err)
	}
	p.DeliverToDriver(0xFA)
	if len(toDevice) != 1 || toDevice[0] != 0xF4 {
		t.Fatalf("device side = %v", toDevice)
	}
	if len(toDriver) != 1 || toDriver[0] != 0xFA {
		t.Fatalf("driver side = %v", toDriver)
	}
}
