package registry

import (
	"errors"
	"strconv"
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
	if Lookup("regtest_no_such") != nil {
		t.Fatal("lookup of an unregistered name returned a handler")
	}
	found := false
	for _, n := range Names() {
		found = found || n == "regtest_hit"
	}
	if !found {
		t.Fatalf("Names() = %v lacks the registered name", Names())
	}
}

// TestByID: the table is dense in registration order, so every index below
// its length resolves to the handler registered there — the one Lookup
// finds by name — and every index at or past it resolves to nil, without
// allocating.
func TestByID(t *testing.T) {
	Register("regtest_byid_a", Handler{Fn: func(*Ctx) error { return nil }})
	Register("regtest_byid_b", Handler{Fn: func(*Ctx) error { return nil }})
	a, b := Lookup("regtest_byid_a"), Lookup("regtest_byid_b")
	if b.ID() != a.ID()+1 {
		t.Fatalf("consecutive registrations took indices %d and %d", a.ID(), b.ID())
	}
	if ByID(a.ID()) != a || ByID(b.ID()) != b {
		t.Fatalf("ByID(%d), ByID(%d) = %p, %p, want %p, %p", a.ID(), b.ID(), ByID(a.ID()), ByID(b.ID()), a, b)
	}
	n := uint32(len(Names()))
	for id := uint32(0); id < n; id++ {
		if h := ByID(id); h == nil || h.ID() != id || Lookup(h.name) != h {
			t.Fatalf("ByID(%d) = %+v: a hole or a misnumbered entry in a %d-entry table", id, h, n)
		}
	}
	for _, id := range []uint32{n, n + 1, 1 << 31, ^uint32(0)} {
		if h := ByID(id); h != nil {
			t.Fatalf("ByID(%d) past a %d-entry table = %+v, want nil", id, n, h)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = ByID(b.ID()), ByID(n) }); avg != 0 {
		t.Fatalf("ByID allocates %.1f objects per call, want 0", avg)
	}
}

// TestDigest: the digest moves with every handler name, Down flag and index,
// and with the cell order, and with nothing else — re-registering a name
// under the same flag, as a test swapping a body does, leaves it alone.
func TestDigest(t *testing.T) {
	hs := func(names string, downs ...bool) []*Handler {
		var out []*Handler
		for i, n := range strings.Split(names, ",") {
			out = append(out, &Handler{name: n, id: uint32(i), Down: downs[i]})
		}
		return out
	}
	xy, dd := []string{"x", "y"}, []string{"d", "e"}
	base := digest(hs("a,b", false, true), xy, dd)
	for _, tc := range []struct {
		what string
		got  uint64
	}{
		{"a handler renamed", digest(hs("a,c", false, true), xy, dd)},
		{"a Down flag flipped", digest(hs("a,b", true, true), xy, dd)},
		{"the handler order swapped", digest(hs("b,a", true, false), xy, dd)},
		{"a name boundary moved", digest(hs("ab,", false, true), xy, dd)},
		{"the cell order swapped", digest(hs("a,b", false, true), []string{"y", "x"}, dd)},
		{"a cell added", digest(hs("a,b", false, true), []string{"x", "y", "z"}, dd)},
		{"the downcall order swapped", digest(hs("a,b", false, true), xy, []string{"e", "d"})},
		{"a downcall added", digest(hs("a,b", false, true), xy, []string{"d", "e", "f"})},
		{"a cell turned downcall", digest(hs("a,b", false, true), []string{"x"}, []string{"y", "d", "e"})},
	} {
		if tc.got == base {
			t.Errorf("%s: digest unchanged at %#x", tc.what, base)
		}
	}
	if again := digest(hs("a,b", false, true), xy, dd); again != base {
		t.Fatalf("the same table digests to %#x and %#x", base, again)
	}

	Register("regtest_digest", Handler{Fn: func(*Ctx) error { return nil }})
	d := Digest()
	Register("regtest_digest", Handler{Fn: func(*Ctx) error { return errors.New("swapped body") }})
	if Digest() != d {
		t.Fatal("a body swapped under the same name and flag moved the digest")
	}
	Register("regtest_digest", Handler{Down: true, Fn: func(*Ctx) error { return nil }})
	if Digest() == d {
		t.Fatal("a Down flag flipped by re-registering left the digest unchanged")
	}
	Register("regtest_digest", Handler{Fn: func(*Ctx) error { return nil }})
	if Digest() != d {
		t.Fatal("restoring the flag did not restore the digest")
	}
	Register("regtest_digest_new", Handler{Fn: func(*Ctx) error { return nil }})
	if Digest() == d {
		t.Fatal("a new handler left the digest unchanged")
	}
	d = Digest()
	DeclareDowncall("regtest_digest_down")
	if Digest() == d {
		t.Fatal("a new downcall left the digest unchanged")
	}
	// Each worker spawn computes it on the kernel side.
	if avg := testing.AllocsPerRun(10, func() { _ = Digest() }); avg != 0 {
		t.Fatalf("Digest allocates %.1f objects per call, want 0", avg)
	}
}

// TestRegisterReplaces: a second Register under the same name replaces the
// body for later lookups at the same index; a handler resolved earlier keeps
// the body it was resolved with (the table is copy-on-write, entries are
// never mutated).
func TestRegisterReplaces(t *testing.T) {
	Register("regtest_replace", Handler{Fn: func(*Ctx) error { return errors.New("first") }})
	first := Lookup("regtest_replace")
	Register("regtest_replace", Handler{Down: true, Fn: func(*Ctx) error { return errors.New("second") }})
	second := Lookup("regtest_replace")
	if second == first || !second.Down {
		t.Fatalf("replacement not installed: first %p, second %p %+v", first, second, second)
	}
	if second.ID() != first.ID() || ByID(first.ID()) != second {
		t.Fatalf("the replacement moved from index %d to %d (ByID resolves %p)", first.ID(), second.ID(), ByID(first.ID()))
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
	reg := DeclareDowncall("regtest_arm_reg")
	var ctx Ctx
	c := ctx.Arm(Lookup("regtest_arm_a"), []byte{1, 2, 3}, stA, func(d Downcall, arg uint64) (uint64, error) {
		if d != reg {
			return 0, errors.New("routed to the wrong downcall")
		}
		return arg + 1, nil
	})
	if c != &ctx || c.Name != "regtest_arm_a" || len(c.Data) != 3 || c.State != stA {
		t.Fatalf("first arm = %+v", c)
	}
	if v, err := c.Downcall(reg, 41); err != nil || v != 42 {
		t.Fatalf("routed downcall = %d, %v", v, err)
	}
	c = ctx.Arm(Lookup("regtest_arm_b"), nil, stB, nil)
	if c.Name != "regtest_arm_b" || c.Data != nil || c.State != stB {
		t.Fatalf("second arm kept state of the first: %+v", c)
	}
	if _, err := c.Downcall(reg, 41); err == nil {
		t.Fatal("second call inherited the first call's downcall route")
	}
	if avg := testing.AllocsPerRun(100, func() { ctx.Arm(Lookup("regtest_arm_b"), nil, stB, nil) }); avg != 0 {
		t.Fatalf("Arm allocates %.1f objects per call, want 0", avg)
	}
}

func TestDowncallWithoutRoute(t *testing.T) {
	h := Register("regtest_noroute", Handler{Fn: func(*Ctx) error { return nil }})
	c := new(Ctx).Arm(h, nil, NewState(), nil)
	v, err := c.Downcall(DeclareDowncall("regtest_read_reg"), 7)
	if v != 0 || err == nil {
		t.Fatalf("Downcall without a route = %d, %v", v, err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"regtest_noroute"`) || !strings.Contains(msg, "Down: true") {
		t.Fatalf("error %q should name the handler and the fix", msg)
	}
}

// TestNewCtxRoutesByName: the by-name context benchmark/ builds reaches its
// name-keyed route with the declared downcall's name.
func TestNewCtxRoutesByName(t *testing.T) {
	d := DeclareDowncall("regtest_newctx_reg")
	var got string
	c := NewCtx("regtest_newctx", nil, NewState(), func(name string, arg uint64) (uint64, error) {
		got = name
		return arg * 2, nil
	})
	if v, err := c.Downcall(d, 21); err != nil || v != 42 || got != "regtest_newctx_reg" {
		t.Fatalf("Downcall = %d, %v via %q, want 42 via the declared name", v, err, got)
	}
}

// TestHandleSurvivesReregistration: the handle Register returns stays the
// way to cross after a second Register under its name swaps the body — as
// tests that swap a driver's body do — because Current resolves it through
// its index. A Handler that Register never returned resolves to nil.
func TestHandleSurvivesReregistration(t *testing.T) {
	h := Register("regtest_handle", Handler{Fn: func(*Ctx) error { return errors.New("first") }})
	if h != Lookup("regtest_handle") || h.Current() != h || h.Name() != "regtest_handle" {
		t.Fatalf("Register returned %p, Lookup finds %p, Current %p", h, Lookup("regtest_handle"), h.Current())
	}
	swapped := Register("regtest_handle", Handler{Fn: func(*Ctx) error { return errors.New("second") }})
	if cur := h.Current(); cur != swapped || cur.ID() != h.ID() {
		t.Fatalf("the first handle resolves to %p (id %d), want the replacement %p (id %d)", cur, cur.ID(), swapped, h.ID())
	}
	if err := h.Current().Fn(nil); err == nil || err.Error() != "second" {
		t.Fatalf("the first handle dispatches a body returning %v, want the replacement's", err)
	}
	for _, stray := range []*Handler{{Fn: func(*Ctx) error { return nil }}, {name: "regtest_never", id: h.ID()}} {
		if cur := stray.Current(); cur != nil {
			t.Fatalf("a Handler Register never returned resolves to %+v", cur)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { _ = h.Current() }); avg != 0 {
		t.Fatalf("Current allocates %.1f objects per call, want 0", avg)
	}
}

// TestDeclareDowncall: downcalls are numbered densely in declaration order,
// a second declaration of a name returns its index, and the names read back
// by index, lock-free — with an index outside the table named by number.
func TestDeclareDowncall(t *testing.T) {
	a, b := DeclareDowncall("regtest_down_a"), DeclareDowncall("regtest_down_b")
	if b != a+1 || DeclareDowncall("regtest_down_a") != a {
		t.Fatalf("declarations took %d, %d; redeclaring a took %d", a, b, DeclareDowncall("regtest_down_a"))
	}
	names := DowncallNames()
	if a.Name() != "regtest_down_a" || names[b] != "regtest_down_b" {
		t.Fatalf("names %q, %q", a.Name(), names[b])
	}
	if past := Downcall(len(names)); past.Name() != "#"+strconv.Itoa(len(names)) {
		t.Fatalf("an index past the table is named %q", past.Name())
	}
	if avg := testing.AllocsPerRun(100, func() { _ = b.Name() }); avg != 0 {
		t.Fatalf("Name allocates %.1f objects per call, want 0", avg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeclareDowncall accepted an empty name")
		}
	}()
	DeclareDowncall("")
}
