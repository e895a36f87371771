package slicer

import (
	"fmt"
	"sort"
	"strings"
)

// MarshalSpec records, per structure, which fields the generated marshaling
// code transfers — the customized field-level marshaling of §2.3. A field is
// transferred if user-level code is observed accessing it (CIL analysis of
// the C source) or a DECAF_XVAR annotation declares access from Java code,
// which CIL cannot see (§3.2.4).
type MarshalSpec struct {
	// Fields maps struct name -> transferred field names (sorted).
	Fields map[string][]string
}

// BuildMarshalSpec computes the marshaling specification for a partition:
// the union of fields accessed by user-placed functions (ReadsFields /
// WritesFields, the CIL-visible accesses) and fields carrying DECAF_XVAR
// annotations (the Java-visible accesses).
func BuildMarshalSpec(p *Partition) *MarshalSpec {
	d := p.Driver
	set := make(map[string]map[string]bool)
	add := func(ref string) {
		parts := strings.SplitN(ref, ".", 2)
		if len(parts) != 2 {
			return
		}
		if set[parts[0]] == nil {
			set[parts[0]] = make(map[string]bool)
		}
		set[parts[0]][parts[1]] = true
	}
	for name, f := range d.Funcs {
		if p.ByFunc[name] == PlaceNucleus {
			continue
		}
		for _, r := range f.ReadsFields {
			add(r)
		}
		for _, w := range f.WritesFields {
			add(w)
		}
	}
	for _, s := range d.Structs {
		for _, fd := range s.Fields {
			if fd.DecafAccess != "" {
				add(s.Name + "." + fd.Name)
			}
		}
	}
	spec := &MarshalSpec{Fields: make(map[string][]string, len(set))}
	for sname, fields := range set {
		names := make([]string, 0, len(fields))
		for f := range fields {
			names = append(names, f)
		}
		sort.Strings(names)
		spec.Fields[sname] = names
	}
	return spec
}

// Includes reports whether the spec transfers struct field s.f.
func (m *MarshalSpec) Includes(structName, field string) bool {
	for _, f := range m.Fields[structName] {
		if f == field {
			return true
		}
	}
	return false
}

// RegenReport describes what changed between two DriverSlicer runs — the
// §3.2.4 regeneration path taken as the driver evolves.
type RegenReport struct {
	// AddedFields lists struct.field references newly marshaled.
	AddedFields []string
	// RemovedFields lists struct.field references no longer marshaled.
	RemovedFields []string
	// StubsToRegenerate lists entry points whose stubs must be re-emitted
	// because their structures' marshaling changed.
	StubsToRegenerate []string
}

// Regenerate re-slices the driver, rebuilds the marshaling specification,
// and reports the delta against a previous specification. "The generated
// driver files need only be produced once since the marshaling code is
// segregated from the rest of the driver code" — only stubs and marshaling
// routines are re-emitted.
func Regenerate(d *Driver, old *MarshalSpec) (*Partition, *MarshalSpec, *RegenReport, error) {
	p, err := Slice(d)
	if err != nil {
		return nil, nil, nil, err
	}
	fresh := BuildMarshalSpec(p)
	rep := &RegenReport{}

	flat := func(m *MarshalSpec) map[string]bool {
		out := make(map[string]bool)
		if m == nil {
			return out
		}
		for s, fields := range m.Fields {
			for _, f := range fields {
				out[s+"."+f] = true
			}
		}
		return out
	}
	oldFlat, newFlat := flat(old), flat(fresh)
	changedStructs := make(map[string]bool)
	for ref := range newFlat {
		if !oldFlat[ref] {
			rep.AddedFields = append(rep.AddedFields, ref)
			changedStructs[strings.SplitN(ref, ".", 2)[0]] = true
		}
	}
	for ref := range oldFlat {
		if !newFlat[ref] {
			rep.RemovedFields = append(rep.RemovedFields, ref)
			changedStructs[strings.SplitN(ref, ".", 2)[0]] = true
		}
	}
	sort.Strings(rep.AddedFields)
	sort.Strings(rep.RemovedFields)

	if len(changedStructs) > 0 {
		// Entry points marshal the shared structures; all of them need
		// fresh stubs when any marshaled structure changes shape.
		rep.StubsToRegenerate = append(rep.StubsToRegenerate, p.UserEntryPoints...)
		rep.StubsToRegenerate = append(rep.StubsToRegenerate, p.KernelEntryPoints...)
		sort.Strings(rep.StubsToRegenerate)
	}
	return p, fresh, rep, nil
}

// AddDecafXVar applies a DECAF_XVAR annotation to a structure field,
// the way a programmer informs DriverSlicer that the decaf driver accesses
// a field CIL cannot see (§3.2.4). access is "R", "W" or "RW".
func AddDecafXVar(d *Driver, structName, field, access string) error {
	switch access {
	case "R", "W", "RW":
	default:
		return fmt.Errorf("slicer: DECAF_XVAR access %q", access)
	}
	s, ok := d.StructByName(structName)
	if !ok {
		return fmt.Errorf("slicer: DECAF_XVAR on unknown struct %q", structName)
	}
	for i := range s.Fields {
		if s.Fields[i].Name == field {
			s.Fields[i].DecafAccess = access
			return nil
		}
	}
	return fmt.Errorf("slicer: DECAF_XVAR on unknown field %s.%s", structName, field)
}
