// Package xpc is a miniature crossing runtime for the boundary analyzer's
// golden tests; its import path ends in /internal/xpc, like the real one.
package xpc

import "decafdrivers/internal/lint/testdata/boundary/internal/kernel"

// Runtime mimics the crossing API shape: decaf bodies are handlers called
// by name, and kernel-side work sits behind named scalar downcalls.
type Runtime struct{}

// UpcallHandler dispatches the body registered under name.
func (r *Runtime) UpcallHandler(name string) error { return nil }

// DowncallHandler is a kernel-side target: a scalar in, a scalar out.
type DowncallHandler func(kctx *kernel.Context, arg uint64) (uint64, error)

// RegisterDowncall installs the kernel-side target a handler body reaches
// by name.
func (r *Runtime) RegisterDowncall(name string, fn DowncallHandler) {}

// Ctx is what a handler body sees; Downcall is its only way into the
// kernel.
type Ctx struct{}

// Downcall crosses into the kernel-side target registered under name.
func (c *Ctx) Downcall(name string, arg uint64) (uint64, error) { return 0, nil }
