// Package decaf provides the decaf runtime: the user-level support code
// shared by all decaf drivers (paper §3). It supplies the managed-language
// amenities the paper gets from Java — checked-exception-style error
// handling with nested handlers (Figure 4) and standard-library collections
// for module-parameter validation (§5.1). What a managed language cannot
// express (port I/O, msleep; §5.3) is not a helper library here: a decaf
// body reaches it through a named downcall, and the kernel-side target does
// the I/O or waits out the sleep.
//
// Decaf call bodies themselves are not in this package: a driver registers
// them in the handler table of internal/decaf/registry, which the XPC layer
// dispatches by handle, in the worker process under the proc transport and
// inline otherwise. The registry package doc has a worked example.
//
// The whole package is decaf-side: it may reach kernel-side state only
// through xpc.Runtime crossings, and decafvet's boundary analyzer enforces
// that below.
//
//decaf:boundary
package decaf

import "fmt"

// Exception is a checked-exception analogue: user-level driver code throws
// it (via panic) and handlers established with Try/TryCatch receive it. The
// Class field plays the role of the Java exception type
// (e.g. "E1000HWException"), so handlers can be selective.
type Exception struct {
	// Class names the exception type.
	Class string
	// Msg is the human-readable condition.
	Msg string
	// Errno is the kernel error code the exception wraps, when the
	// condition originated as a C-style integer return (negative errno).
	Errno int
	// Cause is the underlying error, if any.
	Cause error
}

// Error implements error.
func (e *Exception) Error() string {
	if e.Errno != 0 {
		return fmt.Sprintf("%s: %s (errno %d)", e.Class, e.Msg, e.Errno)
	}
	return fmt.Sprintf("%s: %s", e.Class, e.Msg)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *Exception) Unwrap() error { return e.Cause }

// Is matches exceptions by class, so errors.Is(err, &Exception{Class: c})
// behaves like a catch clause for class c.
func (e *Exception) Is(target error) bool {
	t, ok := target.(*Exception)
	if !ok {
		return false
	}
	return t.Class == e.Class && (t.Msg == "" || t.Msg == e.Msg)
}

// Throw raises an exception of the given class; control transfers to the
// innermost Try/TryCatch.
func Throw(class, format string, args ...any) {
	panic(&Exception{Class: class, Msg: fmt.Sprintf(format, args...)})
}

// ThrowErrno raises an exception wrapping a C-style negative errno return,
// the conversion the case study applies to 92 E1000 functions.
func ThrowErrno(class string, errno int, what string) {
	panic(&Exception{Class: class, Msg: what, Errno: errno})
}

// ThrowCause raises an exception wrapping an underlying error.
func ThrowCause(class string, cause error, format string, args ...any) {
	panic(&Exception{Class: class, Msg: fmt.Sprintf(format, args...), Cause: cause})
}

// Rethrow re-raises a caught exception, as the nested handlers in the
// paper's Figure 4 do after their cleanup.
func Rethrow(e *Exception) {
	if e == nil {
		panic("decaf: Rethrow(nil)")
	}
	panic(e)
}

// Try runs body and returns the exception it threw, or nil. Non-exception
// panics propagate: only declared (checked) exceptions are caught, so
// genuine bugs still crash loudly.
func Try(body func()) (exc *Exception) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(*Exception)
			if !ok {
				panic(p)
			}
			exc = e
		}
	}()
	body()
	return nil
}

// TryCatch runs body; if it throws, handler runs with the exception.
// A handler that wants Figure 4 semantics performs its cleanup and calls
// Rethrow, propagating to the next enclosing handler.
func TryCatch(body func(), handler func(e *Exception)) {
	if e := Try(body); e != nil {
		handler(e)
	}
}

// Check converts a C-style integer return into an exception: a negative
// value throws, zero or positive returns pass through. This is the
// mechanical rewrite the case study applies ("if(ret_val) return ret_val"
// becomes a bare call), which eliminated 675 lines from e1000_hw.c.
func Check(class string, ret int, what string) int {
	if ret < 0 {
		ThrowErrno(class, ret, what)
	}
	return ret
}

// ToError converts the result of Try into a plain error for returning
// across the XPC boundary (exceptions do not cross domains; they are
// converted to error codes at the stub, as Java exceptions are in Decaf).
func ToError(e *Exception) error {
	if e == nil {
		return nil
	}
	return e
}
