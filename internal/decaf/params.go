package decaf

// This file reproduces the module-parameter validation classes from the
// E1000 case study (§5.1): "A base class provides basic parameter checking,
// and the two derived classes provide additional functionality. ... The
// resulting code is shorter than the original C code and more maintainable,
// because the programmer is forced by the type system to provide ranges and
// sets when necessary." The set-membership test uses a hash table, the Java
// collections usage the paper highlights.

// ParamException is the class thrown by failed parameter validation.
const ParamException = "InvalidParameterException"

// Param validates one module parameter. Implementations are the analogue of
// the case study's class hierarchy.
type Param interface {
	// Name is the parameter's name as given on the module command line.
	Name() string
	// Validate returns the value to use, throwing ParamException when the
	// supplied value is invalid. Absent values (ok == false) yield the
	// default.
	Validate(value int, ok bool) int
}

// BaseParam provides basic parameter checking: presence handling and a
// default, the behavior of the case study's base class.
type BaseParam struct {
	// ParamName is the module parameter's name.
	ParamName string
	// Default is used when the parameter is absent.
	Default int
}

// Name implements Param.
func (p *BaseParam) Name() string { return p.ParamName }

// Validate implements Param: any present value is accepted.
func (p *BaseParam) Validate(value int, ok bool) int {
	if !ok {
		return p.Default
	}
	return value
}

// RangeParam is the derived class performing range tests.
type RangeParam struct {
	BaseParam
	// Min and Max bound the accepted values, inclusive.
	Min, Max int
}

// Validate implements Param, throwing when the value is out of range.
func (p *RangeParam) Validate(value int, ok bool) int {
	if !ok {
		return p.Default
	}
	if value < p.Min || value > p.Max {
		Throw(ParamException, "%s: value %d out of range [%d, %d]", p.ParamName, value, p.Min, p.Max)
	}
	return value
}

// SetParam is the derived class performing set-membership tests, using a
// hash table as the case study does with the Java collections library.
type SetParam struct {
	BaseParam
	allowed map[int]bool
}

// NewSetParam creates a set-membership parameter.
func NewSetParam(name string, def int, allowed ...int) *SetParam {
	m := make(map[int]bool, len(allowed))
	for _, v := range allowed {
		m[v] = true
	}
	return &SetParam{BaseParam: BaseParam{ParamName: name, Default: def}, allowed: m}
}

// Validate implements Param, throwing when the value is not in the set.
func (p *SetParam) Validate(value int, ok bool) int {
	if !ok {
		return p.Default
	}
	if !p.allowed[value] {
		Throw(ParamException, "%s: value %d not in allowed set", p.ParamName, value)
	}
	return value
}

// ValidateAll checks each parameter against the supplied values (a module
// load's option map) and returns the resolved settings. "The appropriate
// class checks each module parameter automatically."
func ValidateAll(params []Param, values map[string]int) map[string]int {
	out := make(map[string]int, len(params))
	for _, p := range params {
		v, ok := values[p.Name()]
		out[p.Name()] = p.Validate(v, ok)
	}
	return out
}
