package objtrack

import (
	"testing"
	"testing/quick"
)

type outer struct{ Inner inner }

type inner struct{ V int }

func TestAddressSpaceRegisterStable(t *testing.T) {
	as := NewAddressSpace()
	o := &outer{}
	p1 := as.Register(o)
	p2 := as.Register(o)
	if p1 != p2 {
		t.Fatalf("re-registration changed address: %#x vs %#x", p1, p2)
	}
	if p1 == 0 {
		t.Fatal("Register returned NULL")
	}
	if got, ok := as.byAddr[p1]; !ok || got != any(o) {
		t.Fatal("address does not map back to the object")
	}
	if r, ok := as.byIdent[o]; !ok || r != p1 {
		t.Fatal("object does not map to its address")
	}
}

func TestAddressSpaceDistinctAddresses(t *testing.T) {
	as := NewAddressSpace()
	a, b := &outer{}, &outer{}
	if as.Register(a) == as.Register(b) {
		t.Fatal("two objects share an address")
	}
	if len(as.byAddr) != 2 {
		t.Fatalf("live = %d", len(as.byAddr))
	}
}

func TestAddressSpaceNilPanics(t *testing.T) {
	as := NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	as.Register(nil)
}

func TestTrackerAssociateLookup(t *testing.T) {
	tr := NewTracker("decaf")
	u := &outer{}
	if err := tr.Associate(0x1000, "outer", u); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.LookupUser(0x1000, "outer")
	if !ok || got != any(u) {
		t.Fatal("LookupUser failed")
	}
	p, typ, ok := tr.LookupC(u)
	if !ok || p != 0x1000 || typ != "outer" {
		t.Fatalf("LookupC = %#x/%s/%v", uint64(p), typ, ok)
	}
}

func TestTrackerRejectsNullAndNil(t *testing.T) {
	tr := NewTracker("decaf")
	if err := tr.Associate(0, "t", &outer{}); err == nil {
		t.Fatal("NULL pointer accepted")
	}
	if err := tr.Associate(0x10, "t", nil); err == nil {
		t.Fatal("nil object accepted")
	}
}

// The paper's embedded-struct problem: a C struct and its first member share
// an address; the type identifier must disambiguate them.
func TestTrackerEmbeddedStructDisambiguation(t *testing.T) {
	tr := NewTracker("decaf")
	o := &outer{}
	in := &o.Inner
	const addr = CPtr(0xFFFF888000001000)
	if err := tr.Associate(addr, "outer", o); err != nil {
		t.Fatal(err)
	}
	if err := tr.Associate(addr, "inner", in); err != nil {
		t.Fatal(err)
	}
	gotOuter, ok1 := tr.LookupUser(addr, "outer")
	gotInner, ok2 := tr.LookupUser(addr, "inner")
	if !ok1 || !ok2 {
		t.Fatal("lookups failed")
	}
	if gotOuter == gotInner {
		t.Fatal("outer and inner resolved to the same user object")
	}
	if gotOuter != any(o) || gotInner != any(in) {
		t.Fatal("wrong objects")
	}
	// Reverse direction distinguishes them too.
	_, typ, _ := tr.LookupC(in)
	if typ != "inner" {
		t.Fatalf("LookupC(inner) type = %s", typ)
	}
}

func TestTrackerRelease(t *testing.T) {
	tr := NewTracker("decaf")
	u := &outer{}
	_ = tr.Associate(0x20, "outer", u)
	if !tr.Release(0x20, "outer") {
		t.Fatal("Release = false")
	}
	if tr.Release(0x20, "outer") {
		t.Fatal("double Release = true")
	}
	if _, ok := tr.LookupUser(0x20, "outer"); ok {
		t.Fatal("released association still resolves")
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestTrackerReassociateReplaces(t *testing.T) {
	tr := NewTracker("decaf")
	u1, u2 := &outer{}, &outer{}
	_ = tr.Associate(0x50, "outer", u1)
	_ = tr.Associate(0x50, "outer", u2)
	got, _ := tr.LookupUser(0x50, "outer")
	if got != any(u2) {
		t.Fatal("re-association did not replace")
	}
	if _, _, ok := tr.LookupC(u1); ok {
		t.Fatal("stale reverse mapping survived re-association")
	}
}

func TestTrackerStats(t *testing.T) {
	tr := NewTracker("decaf")
	_ = tr.Associate(0x60, "outer", &outer{})
	if _, ok := tr.LookupUser(0x60, "outer"); !ok {
		t.Fatal("associated pointer missed")
	}
	if _, ok := tr.LookupUser(0x61, "outer"); ok {
		t.Fatal("unassociated pointer hit")
	}
}

// Property: after associating n distinct (ptr,type) pairs, every one
// resolves both directions, and Count matches.
func TestTrackerBijectionProperty(t *testing.T) {
	f := func(ptrs []uint16) bool {
		tr := NewTracker("p")
		seen := map[CPtr]bool{}
		objs := map[CPtr]*inner{}
		for _, raw := range ptrs {
			p := CPtr(raw) + 1 // avoid NULL
			if seen[p] {
				continue
			}
			seen[p] = true
			o := &inner{V: int(p)}
			objs[p] = o
			if err := tr.Associate(p, "inner", o); err != nil {
				return false
			}
		}
		if tr.Count() != len(objs) {
			return false
		}
		for p, o := range objs {
			got, ok := tr.LookupUser(p, "inner")
			if !ok || got != any(o) {
				return false
			}
			rp, _, ok := tr.LookupC(o)
			if !ok || rp != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
