// Package slicer implements DriverSlicer (paper §2.4, §3.2), the tool that
// turns a legacy kernel driver into a decaf driver. It provides the paper's
// three key functions —
//
//  1. partitioning: reachability analysis from critical root functions,
//     determining which code must stay in the kernel;
//  2. stub generation: emitting kernel-side and Jeannie-style user-side
//     stubs for every entry point, with object-tracker and marshaling calls
//     (the shape of the paper's Figure 2);
//  3. driver generation: splitting the source into two readable trees
//     (driver nucleus and driver library), with stubs segregated into their
//     own files;
//
// plus the regeneration support of §3.2.4 (DECAF_XVAR annotations adding
// fields to the marshaling specification as the driver evolves) and the XDR
// specification generator of §3.2.2, including the pointer-to-array rewrite
// of Figure 3.
//
// The real DriverSlicer analyzes C with CIL. Source code is not available in
// this reproduction, so the tool operates on a driver IR: a function
// inventory with a call graph, per-function placement constraints, structure
// definitions with marshaling annotations, and modeled error-handling sites
// for the case-study analyses. The algorithms run unchanged on this IR.
package slicer

import (
	"fmt"
	"sort"
)

// Driver is the IR for one legacy driver: DriverSlicer's input.
type Driver struct {
	// Name is the module name (e.g. "e1000").
	Name string
	// Type describes the device class ("Network", "Sound", ...).
	Type string
	// TotalLoC is the driver's total line count, including declarations and
	// comments outside function bodies (the Table 2 "Lines of code" column).
	TotalLoC int

	// Funcs is the function inventory, keyed by name.
	Funcs map[string]*Function
	// Structs are the driver's data-structure definitions.
	Structs []*StructDef
	// CriticalRoots lists the functions whose type signatures were supplied
	// as critical roots: kernel-interface functions that must execute in
	// the kernel for performance or functionality reasons.
	CriticalRoots []string
	// InterfaceFuncs lists the driver-interface functions the kernel
	// invokes (probe, open, ioctl handlers, ...). Those not reachable from
	// critical roots become user-mode entry points.
	InterfaceFuncs []string
	// KernelImports lists kernel functions the driver calls; calls to them
	// from user-mode code become kernel entry points.
	KernelImports []string
	// FileLoC optionally records per-file total line counts where they
	// exceed the sum of the file's function bodies.
	FileLoC map[string]int
}

// Function is one driver function in the IR.
type Function struct {
	// Name is the function name.
	Name string
	// File is the source file the function lives in.
	File string
	// LoC is the function's line count in the original driver.
	LoC int
	// Calls lists callees: other driver functions or kernel imports.
	Calls []string
	// Annotations counts DriverSlicer marshaling annotations on this
	// function's parameters and locals.
	Annotations int
	// ForceKernel pins the function to the nucleus even if unreachable
	// from the critical roots, with Reason explaining why — the E1000 case
	// study pins four ethtool functions over an explicit data race.
	ForceKernel bool
	// Reason documents a ForceKernel pin.
	Reason string
	// ConvertedToJava marks user-mode functions rewritten in the decaf
	// driver; unconverted user functions remain in the driver library.
	// The paper converts "all the functions in user level that we observed
	// being called"; device-specific functions for other chipsets stay in C.
	ConvertedToJava bool
	// ErrorSites model the function's error-handling structure for the
	// case-study analysis.
	ErrorSites []ErrorSite
	// UsesGotoCleanup marks the Linux goto-label error-handling idiom.
	UsesGotoCleanup bool
	// ReadsFields / WritesFields list "struct.field" references from this
	// function, used to build marshaling field masks for entry points.
	ReadsFields  []string
	WritesFields []string
}

// ErrorSite models one call whose return value carries an error code.
type ErrorSite struct {
	// Callee is the function whose return value is at issue.
	Callee string
	// Checked reports whether the return value is tested at all.
	Checked bool
	// HandledCorrectly reports whether the test jumps to the right cleanup
	// label; a checked-but-misrouted site is the "handled incorrectly"
	// case of the paper's 28.
	HandledCorrectly bool
	// CheckLines is the number of source lines the check-and-return idiom
	// occupies (the lines exception conversion eliminates).
	CheckLines int
}

// StructDef is a driver data-structure definition.
type StructDef struct {
	// Name is the C structure name (e.g. "e1000_adapter").
	Name string
	// Fields lists the members in declaration order.
	Fields []FieldDef
}

// FieldDef is one structure member.
type FieldDef struct {
	// Name is the member name.
	Name string
	// CType is the C type as written ("uint32_t", "struct e1000_tx_ring",
	// "long long", "char").
	CType string
	// Pointer marks pointer members.
	Pointer bool
	// ArrayLen is a fixed array length (0 for scalars). Combined with
	// Pointer it means pointer-to-fixed-array, the Figure 3 case, and
	// requires a length annotation.
	ArrayLen int
	// LenAnnotation is the DriverSlicer annotation naming the pointed-to
	// array's extent, e.g. "exp(PCI_LEN)".
	LenAnnotation string
	// DecafAccess is the DECAF_XVAR annotation: "", "R", "W" or "RW",
	// declaring that decaf-driver code reads and/or writes the member.
	DecafAccess string
}

// Validate checks IR consistency: every call target and root exists, files
// are named, and annotations are well-formed.
func (d *Driver) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("slicer: driver with empty name")
	}
	imports := make(map[string]bool, len(d.KernelImports))
	for _, ki := range d.KernelImports {
		imports[ki] = true
	}
	for name, f := range d.Funcs {
		if f.Name != name {
			return fmt.Errorf("slicer: %s: function map key %q != name %q", d.Name, name, f.Name)
		}
		if f.File == "" {
			return fmt.Errorf("slicer: %s: function %q has no file", d.Name, name)
		}
		if f.LoC <= 0 {
			return fmt.Errorf("slicer: %s: function %q has LoC %d", d.Name, name, f.LoC)
		}
		for _, c := range f.Calls {
			if _, ok := d.Funcs[c]; !ok && !imports[c] {
				return fmt.Errorf("slicer: %s: %q calls unknown %q", d.Name, name, c)
			}
		}
	}
	for _, r := range d.CriticalRoots {
		if _, ok := d.Funcs[r]; !ok {
			return fmt.Errorf("slicer: %s: critical root %q not in inventory", d.Name, r)
		}
	}
	for _, r := range d.InterfaceFuncs {
		if _, ok := d.Funcs[r]; !ok {
			return fmt.Errorf("slicer: %s: interface function %q not in inventory", d.Name, r)
		}
	}
	for _, s := range d.Structs {
		for _, fd := range s.Fields {
			if fd.Pointer && fd.ArrayLen > 0 && fd.LenAnnotation == "" {
				return fmt.Errorf("slicer: %s: %s.%s is pointer-to-array without length annotation",
					d.Name, s.Name, fd.Name)
			}
			switch fd.DecafAccess {
			case "", "R", "W", "RW":
			default:
				return fmt.Errorf("slicer: %s: %s.%s has DECAF_XVAR access %q",
					d.Name, s.Name, fd.Name, fd.DecafAccess)
			}
		}
	}
	return nil
}

// FuncNames returns the inventory's function names, sorted.
func (d *Driver) FuncNames() []string {
	names := make([]string, 0, len(d.Funcs))
	for n := range d.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AnnotationCount totals the DriverSlicer annotations in the driver source:
// per-function marshaling annotations plus structure-field annotations
// (pointer-length and DECAF_XVAR). Header annotations are counted separately
// as they are shared across drivers.
func (d *Driver) AnnotationCount() int {
	n := 0
	for _, f := range d.Funcs {
		n += f.Annotations
	}
	for _, s := range d.Structs {
		for _, fd := range s.Fields {
			if fd.LenAnnotation != "" {
				n++
			}
			if fd.DecafAccess != "" {
				n++
			}
		}
	}
	return n
}

// StructByName finds a structure definition.
func (d *Driver) StructByName(name string) (*StructDef, bool) {
	for _, s := range d.Structs {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
