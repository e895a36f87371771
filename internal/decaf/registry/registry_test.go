package registry

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestLookupHitAndMiss(t *testing.T) {
	Register("regtest_hit", Handler{Cost: time.Microsecond, Fn: func(*Ctx) error { return nil }})
	h := Lookup("regtest_hit")
	if h == nil || h.Cost != time.Microsecond || h.Fn == nil {
		t.Fatalf("Lookup(hit) = %+v", h)
	}
	if hb := LookupBytes([]byte("regtest_hit")); hb != h {
		t.Fatalf("LookupBytes resolved %p, Lookup %p: one table, one entry", hb, h)
	}
	if Lookup("regtest_no_such") != nil || LookupBytes([]byte("regtest_no_such")) != nil || LookupBytes(nil) != nil {
		t.Fatal("lookup of an unregistered name returned a handler")
	}
	found := false
	for _, n := range Names() {
		found = found || n == "regtest_hit"
	}
	if !found {
		t.Fatalf("Names() = %v lacks the registered name", Names())
	}
	name := []byte("regtest_hit")
	if avg := testing.AllocsPerRun(100, func() { _ = LookupBytes(name) }); avg != 0 {
		t.Fatalf("LookupBytes allocates %.1f objects per call, want 0", avg)
	}
}

// TestRegisterReplaces: a second Register under the same name replaces the
// body for later lookups; a handler resolved earlier keeps the body it was
// resolved with (the table is copy-on-write, entries are never mutated).
func TestRegisterReplaces(t *testing.T) {
	Register("regtest_replace", Handler{Fn: func(*Ctx) error { return errors.New("first") }})
	first := Lookup("regtest_replace")
	Register("regtest_replace", Handler{Down: true, Fn: func(*Ctx) error { return errors.New("second") }})
	second := Lookup("regtest_replace")
	if second == first || !second.Down {
		t.Fatalf("replacement not installed: first %p, second %p %+v", first, second, second)
	}
	if err := second.Fn(nil); err == nil || err.Error() != "second" {
		t.Fatalf("replaced body returned %v", err)
	}
	if err := first.Fn(nil); err == nil || err.Error() != "first" || first.Down {
		t.Fatalf("earlier resolution changed under its holder: %v %+v", err, first)
	}
	n := 0
	for _, name := range Names() {
		if name == "regtest_replace" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("name listed %d times after a replace", n)
	}
	for _, bad := range []func(){
		func() { Register("", Handler{Fn: func(*Ctx) error { return nil }}) },
		func() { Register("regtest_nil_body", Handler{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Register accepted a handler without a name or body")
				}
			}()
			bad()
		}()
	}
}

// TestArmLeavesNothingBehind: a dispatcher-owned Ctx armed for a second call
// shows that call none of the first one's name, payload, state or downcall
// route.
func TestArmLeavesNothingBehind(t *testing.T) {
	Register("regtest_arm_a", Handler{Down: true, Fn: func(*Ctx) error { return nil }})
	Register("regtest_arm_b", Handler{Fn: func(*Ctx) error { return nil }})
	stA, stB := NewState(), NewState()
	var ctx Ctx
	c := ctx.Arm(Lookup("regtest_arm_a"), []byte{1, 2, 3}, stA, func(name string, arg uint64) (uint64, error) { return arg + 1, nil })
	if c != &ctx || c.Name != "regtest_arm_a" || len(c.Data) != 3 || c.State != stA {
		t.Fatalf("first arm = %+v", c)
	}
	if v, err := c.Downcall("reg", 41); err != nil || v != 42 {
		t.Fatalf("routed downcall = %d, %v", v, err)
	}
	c = ctx.Arm(Lookup("regtest_arm_b"), nil, stB, nil)
	if c.Name != "regtest_arm_b" || c.Data != nil || c.State != stB {
		t.Fatalf("second arm kept state of the first: %+v", c)
	}
	if _, err := c.Downcall("reg", 41); err == nil {
		t.Fatal("second call inherited the first call's downcall route")
	}
	if avg := testing.AllocsPerRun(100, func() { ctx.Arm(Lookup("regtest_arm_b"), nil, stB, nil) }); avg != 0 {
		t.Fatalf("Arm allocates %.1f objects per call, want 0", avg)
	}
}

func TestDowncallWithoutRoute(t *testing.T) {
	c := NewCtx("regtest_noroute", nil, NewState(), nil)
	v, err := c.Downcall("read_reg", 7)
	if v != 0 || err == nil {
		t.Fatalf("Downcall without a route = %d, %v", v, err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"regtest_noroute"`) || !strings.Contains(msg, "Down: true") {
		t.Fatalf("error %q should name the handler and the fix", msg)
	}
}
