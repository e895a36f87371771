package slicer

import (
	"strings"
	"testing"
	"testing/quick"
)

// toyDriver builds a small driver IR with a known-correct partition:
//
//	critical roots: intr (irq handler), xmit (data path)
//	intr -> rx_clean -> refill ; xmit -> tx_map
//	interface: probe, open, xmit, intr, suspend
//	open -> reset_hw -> phy_init ; probe -> open path is user-level
//	ethtool_wait is ForceKernel (data race pin)
func toyDriver() *Driver {
	funcs := map[string]*Function{
		"toy_intr":      {Name: "toy_intr", File: "toy_main.c", LoC: 40, Calls: []string{"toy_rx_clean"}},
		"toy_xmit":      {Name: "toy_xmit", File: "toy_main.c", LoC: 60, Calls: []string{"toy_tx_map"}},
		"toy_rx_clean":  {Name: "toy_rx_clean", File: "toy_main.c", LoC: 50, Calls: []string{"toy_refill"}},
		"toy_refill":    {Name: "toy_refill", File: "toy_main.c", LoC: 30},
		"toy_tx_map":    {Name: "toy_tx_map", File: "toy_main.c", LoC: 25},
		"toy_probe":     {Name: "toy_probe", File: "toy_main.c", LoC: 80, Calls: []string{"toy_reset_hw", "pci_enable_device"}, ConvertedToJava: true, WritesFields: []string{"toy_adapter.flags"}},
		"toy_open":      {Name: "toy_open", File: "toy_main.c", LoC: 70, Calls: []string{"toy_reset_hw", "request_irq"}, ConvertedToJava: true, ReadsFields: []string{"toy_adapter.mac_addr"}},
		"toy_reset_hw":  {Name: "toy_reset_hw", File: "toy_hw.c", LoC: 90, Calls: []string{"toy_phy_init"}, ConvertedToJava: true},
		"toy_phy_init":  {Name: "toy_phy_init", File: "toy_hw.c", LoC: 45, ConvertedToJava: true},
		"toy_suspend":   {Name: "toy_suspend", File: "toy_main.c", LoC: 20},
		"toy_other_dev": {Name: "toy_other_dev", File: "toy_hw.c", LoC: 55},
		"toy_ethtool_wait": {Name: "toy_ethtool_wait", File: "toy_main.c", LoC: 15,
			ForceKernel: true, Reason: "explicit data race with interrupt handler"},
	}
	return &Driver{
		Name:           "toy",
		Type:           "Network",
		TotalLoC:       900,
		Funcs:          funcs,
		CriticalRoots:  []string{"toy_intr", "toy_xmit"},
		InterfaceFuncs: []string{"toy_probe", "toy_open", "toy_xmit", "toy_intr", "toy_suspend"},
		KernelImports:  []string{"pci_enable_device", "request_irq"},
		Structs: []*StructDef{
			{
				Name: "toy_adapter",
				Fields: []FieldDef{
					{Name: "flags", CType: "uint32_t"},
					{Name: "mac_addr", CType: "unsigned char", ArrayLen: 6},
					{Name: "config_space", CType: "uint32_t", Pointer: true, ArrayLen: 64, LenAnnotation: "exp(PCI_LEN)"},
					{Name: "stats_total", CType: "long long"},
					{Name: "msg_enable", CType: "int", DecafAccess: "RW"},
				},
			},
		},
	}
}

func TestSlicePartition(t *testing.T) {
	p, err := Slice(toyDriver())
	if err != nil {
		t.Fatal(err)
	}
	wantNucleus := []string{"toy_intr", "toy_xmit", "toy_rx_clean", "toy_refill", "toy_tx_map", "toy_ethtool_wait"}
	for _, n := range wantNucleus {
		if p.ByFunc[n] != PlaceNucleus {
			t.Errorf("%s placed in %v, want nucleus", n, p.ByFunc[n])
		}
	}
	for _, n := range []string{"toy_probe", "toy_open", "toy_reset_hw", "toy_phy_init"} {
		if p.ByFunc[n] != PlaceDecaf {
			t.Errorf("%s placed in %v, want decaf", n, p.ByFunc[n])
		}
	}
	for _, n := range []string{"toy_suspend", "toy_other_dev"} {
		if p.ByFunc[n] != PlaceLibrary {
			t.Errorf("%s placed in %v, want library", n, p.ByFunc[n])
		}
	}
	if p.Pinned["toy_ethtool_wait"] == "" {
		t.Error("pin reason missing")
	}
}

func TestSliceEntryPoints(t *testing.T) {
	p, err := Slice(toyDriver())
	if err != nil {
		t.Fatal(err)
	}
	wantUser := []string{"toy_open", "toy_probe", "toy_suspend"}
	if strings.Join(p.UserEntryPoints, ",") != strings.Join(wantUser, ",") {
		t.Errorf("UserEntryPoints = %v, want %v", p.UserEntryPoints, wantUser)
	}
	// Kernel entry points: kernel imports called from user code.
	got := strings.Join(p.KernelEntryPoints, ",")
	for _, want := range []string{"pci_enable_device", "request_irq"} {
		if !strings.Contains(got, want) {
			t.Errorf("KernelEntryPoints %v missing %s", p.KernelEntryPoints, want)
		}
	}
}

func TestSliceValidationErrors(t *testing.T) {
	d := toyDriver()
	d.Funcs["bad"] = &Function{Name: "bad", File: "f.c", LoC: 1, Calls: []string{"no_such_fn"}}
	if _, err := Slice(d); err == nil {
		t.Fatal("unknown callee accepted")
	}

	d = toyDriver()
	d.CriticalRoots = append(d.CriticalRoots, "missing_root")
	if _, err := Slice(d); err == nil {
		t.Fatal("missing root accepted")
	}

	d = toyDriver()
	d.Structs[0].Fields[2].LenAnnotation = ""
	if _, err := Slice(d); err == nil {
		t.Fatal("pointer-to-array without annotation accepted")
	}
}

func TestComputeStats(t *testing.T) {
	p, _ := Slice(toyDriver())
	s := p.ComputeStats(func(l int) int { return l * 95 / 100 })
	if s.Nucleus.Funcs != 6 {
		t.Errorf("Nucleus.Funcs = %d, want 6", s.Nucleus.Funcs)
	}
	if s.Decaf.Funcs != 4 {
		t.Errorf("Decaf.Funcs = %d, want 4", s.Decaf.Funcs)
	}
	if s.Library.Funcs != 2 {
		t.Errorf("Library.Funcs = %d, want 2", s.Library.Funcs)
	}
	wantOrig := 80 + 70 + 90 + 45
	if s.DecafOrigLoC != wantOrig {
		t.Errorf("DecafOrigLoC = %d, want %d", s.DecafOrigLoC, wantOrig)
	}
	if s.Decaf.LoC != wantOrig*95/100 {
		t.Errorf("Decaf.LoC = %d", s.Decaf.LoC)
	}
	if s.Annotations == 0 {
		t.Error("annotations not counted")
	}
	if uf := s.UserFraction(); uf <= 0.4 || uf >= 0.6 {
		t.Errorf("UserFraction = %f", uf)
	}
}

func TestXDRSpecFigure3(t *testing.T) {
	d := toyDriver()
	spec, err := GenerateXDRSpec(d)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 3 transform: pointer-to-array becomes wrapper struct +
	// typedef'd pointer, preserving memory layout.
	if len(spec.WrapperStructs) != 1 || spec.WrapperStructs[0] != "array256_uint32_t" {
		t.Fatalf("WrapperStructs = %v", spec.WrapperStructs)
	}
	for _, want := range []string{
		"struct array256_uint32_t {",
		"unsigned int array[256];",
		"typedef struct array256_uint32_t *array256_uint32_t_ptr;",
		"struct toy_adapter_autoxdr_c {",
		"array256_uint32_t_ptr config_space;",
		"hyper stats_total;", // long long -> hyper
		"unsigned char mac_addr[6];",
	} {
		if !strings.Contains(spec.Text, want) {
			t.Errorf("spec missing %q\n%s", want, spec.Text)
		}
	}
	// The original pointer-to-array type must not survive.
	if strings.Contains(spec.Text, "uint32_t *config_space") {
		t.Error("pointer-to-array not rewritten")
	}
}

func TestXDRSpecRejectsUnannotatedArrayPointer(t *testing.T) {
	d := toyDriver()
	d.Structs[0].Fields = append(d.Structs[0].Fields,
		FieldDef{Name: "bad", CType: "uint32_t", Pointer: true, LenAnnotation: "exp(PCI_LEN)"})
	if _, err := GenerateXDRSpec(d); err == nil {
		t.Fatal("annotation on non-array pointer accepted")
	}
}

func TestJavaClasses(t *testing.T) {
	classes := GenerateJavaClasses(toyDriver())
	if len(classes) != 1 || classes[0].Name != "toy_adapter" {
		t.Fatalf("classes = %+v", classes)
	}
	txt := classes[0].Text
	for _, want := range []string{
		"public class toy_adapter",
		"public int flags;",
		"public byte[] mac_addr;",
		"public long stats_total;",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("class missing %q\n%s", want, txt)
		}
	}
}

func TestStubGeneration(t *testing.T) {
	p, _ := Slice(toyDriver())
	stubs := GenerateStubs(p, "toy_adapter")
	var kernelStubs, jeannieStubs int
	for _, s := range stubs {
		switch s.Kind {
		case "kernel":
			kernelStubs++
			if !strings.Contains(s.Text, "xpc_upcall") || !strings.Contains(s.Text, "marshal_toy_adapter") {
				t.Errorf("kernel stub %s malformed:\n%s", s.Name, s.Text)
			}
		case "jeannie":
			jeannieStubs++
			if !StubHasFigure2Shape(s) {
				t.Errorf("jeannie stub %s lacks Figure 2 shape:\n%s", s.Name, s.Text)
			}
		}
	}
	if kernelStubs != len(p.UserEntryPoints) {
		t.Errorf("kernel stubs = %d, want %d", kernelStubs, len(p.UserEntryPoints))
	}
	if jeannieStubs != len(p.KernelEntryPoints) {
		t.Errorf("jeannie stubs = %d, want %d", jeannieStubs, len(p.KernelEntryPoints))
	}
}

func TestSplitTreeInvariants(t *testing.T) {
	p, _ := Slice(toyDriver())
	tree := GenerateSplit(p, "toy_adapter")
	if v := CheckSplitInvariants(p, tree); len(v) != 0 {
		t.Fatalf("split violations: %v", v)
	}
	// Stubs are segregated into their own files.
	if _, ok := tree.Nucleus["toy_xpc_stubs.c"]; !ok {
		t.Fatal("nucleus stub file missing")
	}
	if _, ok := tree.User["toy_stubs.jni"]; !ok {
		t.Fatal("user stub file missing")
	}
	// Pinned function documents its reason in the nucleus tree.
	if !strings.Contains(tree.Nucleus["toy_main.c"], "data race") {
		t.Error("pin reason not rendered")
	}
}

func TestBuildMarshalSpec(t *testing.T) {
	p, _ := Slice(toyDriver())
	spec := BuildMarshalSpec(p)
	// From CIL-visible accesses in user functions:
	if !spec.Includes("toy_adapter", "flags") || !spec.Includes("toy_adapter", "mac_addr") {
		t.Errorf("spec missing CIL-visible fields: %v", spec.Fields)
	}
	// From the DECAF_XVAR annotation:
	if !spec.Includes("toy_adapter", "msg_enable") {
		t.Errorf("spec missing DECAF_XVAR field: %v", spec.Fields)
	}
	// Fields nobody accesses are not marshaled.
	if spec.Includes("toy_adapter", "stats_total") {
		t.Error("unaccessed field marshaled")
	}
}

func TestRegenerateDetectsNewField(t *testing.T) {
	d := toyDriver()
	p, _ := Slice(d)
	oldSpec := BuildMarshalSpec(p)

	// Driver evolves: a new field appears and the decaf driver reads it.
	d.Structs[0].Fields = append(d.Structs[0].Fields, FieldDef{Name: "wol_enabled", CType: "bool"})
	if err := AddDecafXVar(d, "toy_adapter", "wol_enabled", "R"); err != nil {
		t.Fatal(err)
	}
	_, fresh, rep, err := Regenerate(d, oldSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AddedFields) != 1 || rep.AddedFields[0] != "toy_adapter.wol_enabled" {
		t.Fatalf("AddedFields = %v", rep.AddedFields)
	}
	if len(rep.RemovedFields) != 0 {
		t.Fatalf("RemovedFields = %v", rep.RemovedFields)
	}
	if len(rep.StubsToRegenerate) == 0 {
		t.Fatal("no stubs flagged for regeneration")
	}
	if !fresh.Includes("toy_adapter", "wol_enabled") {
		t.Fatal("fresh spec missing the new field")
	}
}

func TestRegenerateNoChange(t *testing.T) {
	d := toyDriver()
	p, _ := Slice(d)
	spec := BuildMarshalSpec(p)
	_, _, rep, err := Regenerate(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AddedFields) != 0 || len(rep.RemovedFields) != 0 || len(rep.StubsToRegenerate) != 0 {
		t.Fatalf("spurious regeneration: %+v", rep)
	}
}

func TestAddDecafXVarErrors(t *testing.T) {
	d := toyDriver()
	if err := AddDecafXVar(d, "toy_adapter", "flags", "X"); err == nil {
		t.Fatal("bad access accepted")
	}
	if err := AddDecafXVar(d, "nope", "flags", "R"); err == nil {
		t.Fatal("unknown struct accepted")
	}
	if err := AddDecafXVar(d, "toy_adapter", "nope", "R"); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// Property: for random call graphs, the partition is sound (every function
// reachable from a root is in the nucleus) and complete (every nucleus
// function is either reachable or pinned).
func TestSliceSoundnessProperty(t *testing.T) {
	f := func(edges []uint8, rootPick uint8) bool {
		const n = 12
		d := &Driver{Name: "p", Type: "t", TotalLoC: 100, Funcs: map[string]*Function{}}
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('a'+i)) + "_fn"
			d.Funcs[names[i]] = &Function{Name: names[i], File: "p.c", LoC: 10}
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from := names[int(edges[i])%n]
			to := names[int(edges[i+1])%n]
			d.Funcs[from].Calls = append(d.Funcs[from].Calls, to)
		}
		root := names[int(rootPick)%n]
		d.CriticalRoots = []string{root}
		p, err := Slice(d)
		if err != nil {
			return false
		}
		// Recompute reachability independently.
		reach := map[string]bool{}
		var visit func(string)
		visit = func(fn string) {
			if reach[fn] {
				return
			}
			reach[fn] = true
			for _, c := range d.Funcs[fn].Calls {
				visit(c)
			}
		}
		visit(root)
		for name := range d.Funcs {
			inNucleus := p.ByFunc[name] == PlaceNucleus
			if reach[name] != inNucleus {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random call graphs, the generated split trees satisfy the
// structural invariants (every function in exactly one tree, stubs for every
// user entry point).
func TestSplitInvariantsProperty(t *testing.T) {
	f := func(edges []uint8, rootPick uint8, converted uint8) bool {
		const n = 10
		d := &Driver{Name: "p", Type: "t", TotalLoC: 100, Funcs: map[string]*Function{}}
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('a'+i)) + "_fn"
			d.Funcs[names[i]] = &Function{
				Name: names[i], File: "p.c", LoC: 10,
				ConvertedToJava: converted&(1<<i) != 0,
			}
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from := names[int(edges[i])%n]
			to := names[int(edges[i+1])%n]
			d.Funcs[from].Calls = append(d.Funcs[from].Calls, to)
		}
		root := names[int(rootPick)%n]
		d.CriticalRoots = []string{root}
		// Every function doubles as an interface function, so user-placed
		// ones all become entry points.
		d.InterfaceFuncs = append([]string(nil), names...)
		p, err := Slice(d)
		if err != nil {
			return false
		}
		tree := GenerateSplit(p, "p_state")
		return len(CheckSplitInvariants(p, tree)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
