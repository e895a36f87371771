// Package xpc is a miniature crossing runtime for the boundary analyzer's
// golden tests; its import path ends in /internal/xpc, like the real one.
package xpc

// Runtime mimics the crossing API shape.
type Runtime struct{}

// Downcall runs fn on the kernel side: a closure crossing, which gets its
// body no exemption from the boundary rule.
func (r *Runtime) Downcall(name string, fn func()) error {
	fn()
	return nil
}

// UpcallHandler dispatches the body registered under name.
func (r *Runtime) UpcallHandler(name string) error { return nil }
