package slicer

import (
	"fmt"
	"sort"
	"strings"
)

// XDRSpec is the generated XDR interface specification (§3.2.2): the input
// DriverSlicer hands to the rpcgen/jrpcgen compilers. WrapperStructs are the
// synthesized fixed-array containers of Figure 3.
type XDRSpec struct {
	// Text is the rendered .x specification.
	Text string
	// WrapperStructs names the synthesized arrayN_T wrapper structures.
	WrapperStructs []string
	// Structs lists the emitted structure names in order.
	Structs []string
}

// lenAnnotationValue resolves the DriverSlicer length annotations used by
// the modeled drivers to concrete extents. PCI_LEN is the E1000's saved PCI
// configuration space: 256 bytes = 64 dwords... the paper's Figure 3 shows
// array256_uint32_t, i.e. the annotation names the element count directly.
var lenAnnotationValue = map[string]int{
	"exp(PCI_LEN)":     256,
	"exp(EEPROM_LEN)":  64,
	"exp(RX_RING_LEN)": 256,
	"exp(TX_RING_LEN)": 256,
	"exp(FRAME_LEN)":   1024,
	"exp(NAME_LEN)":    32,
	"exp(MIXER_LEN)":   16,
	"exp(PORT_LEN)":    2,
	"exp(PACKET_LEN)":  4,
	"exp(VENDOR_LEN)":  8,
}

// cToXDRType maps C scalar types to XDR types, including the "syntactic
// transformations, such as converting C's long long type to XDR's hyper
// type" (§3.2.2).
func cToXDRType(ctype string) string {
	switch ctype {
	case "int", "s32":
		return "int"
	case "unsigned", "unsigned int", "uint32_t", "u32":
		return "unsigned int"
	case "short", "s16":
		return "short"
	case "unsigned short", "uint16_t", "u16":
		return "unsigned short"
	case "char", "s8":
		return "char"
	case "unsigned char", "uint8_t", "u8":
		return "unsigned char"
	case "long long", "s64":
		return "hyper"
	case "unsigned long long", "uint64_t", "u64":
		return "unsigned hyper"
	case "bool":
		return "bool"
	case "char *":
		return "string"
	default:
		// struct types pass through with the xdr-name convention.
		if name, ok := strings.CutPrefix(ctype, "struct "); ok {
			return "struct " + name
		}
		return ctype
	}
}

func wrapperName(elemCType string, n int) string {
	elem := strings.ReplaceAll(strings.TrimPrefix(elemCType, "struct "), " ", "_")
	return fmt.Sprintf("array%d_%s", n, elem)
}

// GenerateXDRSpec produces the XDR specification for the driver's shared
// data structures. Following §3.2.2, it discards everything except structure
// definitions, rewrites pointer-to-fixed-array members into pointers to
// synthesized wrapper structures (Figure 3), and applies the scalar-type
// transformations XDR requires. The generated structure names carry the
// _autoxdr_c suffix as in the paper's figure.
func GenerateXDRSpec(d *Driver) (*XDRSpec, error) {
	spec := &XDRSpec{}
	var b strings.Builder
	fmt.Fprintf(&b, "/* XDR interface specification for %s, generated by DriverSlicer. */\n\n", d.Name)

	wrappers := make(map[string]string) // name -> rendered text
	for _, s := range d.Structs {
		for _, f := range s.Fields {
			if f.Pointer && f.ArrayLen == 0 && f.LenAnnotation != "" {
				return nil, fmt.Errorf("slicer: %s.%s: length annotation on non-array pointer", s.Name, f.Name)
			}
			if !f.Pointer || f.ArrayLen == 0 {
				continue
			}
			n := f.ArrayLen
			if f.LenAnnotation != "" {
				if v, ok := lenAnnotationValue[f.LenAnnotation]; ok {
					n = v
				}
			}
			w := wrapperName(f.CType, n)
			if _, dup := wrappers[w]; dup {
				continue
			}
			var wb strings.Builder
			fmt.Fprintf(&wb, "struct %s {\n", w)
			fmt.Fprintf(&wb, "\t%s array[%d];\n", cToXDRType(f.CType), n)
			fmt.Fprintf(&wb, "};\n")
			fmt.Fprintf(&wb, "typedef struct %s *%s_ptr;\n\n", w, w)
			wrappers[w] = wb.String()
		}
	}
	wnames := make([]string, 0, len(wrappers))
	for w := range wrappers {
		wnames = append(wnames, w)
	}
	sort.Strings(wnames)
	for _, w := range wnames {
		b.WriteString(wrappers[w])
		spec.WrapperStructs = append(spec.WrapperStructs, w)
	}

	for _, s := range d.Structs {
		name := s.Name + "_autoxdr_c"
		fmt.Fprintf(&b, "struct %s {\n", name)
		for _, f := range s.Fields {
			switch {
			case f.Pointer && f.ArrayLen > 0:
				n := f.ArrayLen
				if f.LenAnnotation != "" {
					if v, ok := lenAnnotationValue[f.LenAnnotation]; ok {
						n = v
					}
				}
				fmt.Fprintf(&b, "\t%s_ptr %s;\n", wrapperName(f.CType, n), f.Name)
			case f.Pointer:
				fmt.Fprintf(&b, "\t%s *%s;\n", cToXDRType(f.CType), f.Name)
			case f.ArrayLen > 0:
				fmt.Fprintf(&b, "\t%s %s[%d];\n", cToXDRType(f.CType), f.Name, f.ArrayLen)
			default:
				fmt.Fprintf(&b, "\t%s %s;\n", cToXDRType(f.CType), f.Name)
			}
		}
		fmt.Fprintf(&b, "};\n\n")
		spec.Structs = append(spec.Structs, name)
	}

	spec.Text = b.String()
	return spec, nil
}

// JavaClass is a generated Java container class for one C structure: "a Java
// class for each C data type used by the driver. These classes are
// containers of public fields" (§3.2.3).
type JavaClass struct {
	Name string
	Text string
}

// cToJavaType maps C types to the Java types jrpcgen emits.
func cToJavaType(ctype string) string {
	switch ctype {
	case "int", "s32", "unsigned", "unsigned int", "uint32_t", "u32":
		return "int"
	case "short", "s16", "unsigned short", "uint16_t", "u16":
		return "short"
	case "char", "s8", "unsigned char", "uint8_t", "u8":
		return "byte"
	case "long long", "s64", "unsigned long long", "uint64_t", "u64":
		return "long"
	case "bool":
		return "boolean"
	case "char *":
		return "String"
	default:
		if name, ok := strings.CutPrefix(ctype, "struct "); ok {
			return name
		}
		return ctype
	}
}

// GenerateJavaClasses renders the container classes for the driver's
// structures. All members are public, as the paper notes ("we expect
// developers to rewrite these classes when doing more development in Java").
func GenerateJavaClasses(d *Driver) []JavaClass {
	out := make([]JavaClass, 0, len(d.Structs))
	for _, s := range d.Structs {
		var b strings.Builder
		fmt.Fprintf(&b, "/* Generated by DriverSlicer's jrpcgen; container of public fields. */\n")
		fmt.Fprintf(&b, "public class %s {\n", s.Name)
		for _, f := range s.Fields {
			jt := cToJavaType(f.CType)
			switch {
			case f.ArrayLen > 0 || (f.Pointer && f.ArrayLen > 0):
				fmt.Fprintf(&b, "    public %s[] %s;\n", jt, f.Name)
			default:
				fmt.Fprintf(&b, "    public %s %s;\n", jt, f.Name)
			}
		}
		fmt.Fprintf(&b, "}\n")
		out = append(out, JavaClass{Name: s.Name, Text: b.String()})
	}
	return out
}
