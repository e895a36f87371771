// Package xpc is a miniature crossing runtime for the boundary analyzer's
// golden tests; its import path ends in /internal/xpc, like the real one.
package xpc

import "decafdrivers/internal/lint/testdata/boundary/internal/kernel"

// Runtime mimics the crossing API shape: decaf bodies are handlers called
// by handle, and kernel-side work sits behind declared scalar downcalls.
type Runtime struct{}

// Handler is one registered decaf call body.
type Handler struct{ Fn func(*Ctx) error }

// Register installs a body and returns the handle the kernel side crosses
// with.
func Register(name string, h Handler) *Handler { return &h }

// Call dispatches the body registered behind h.
func (r *Runtime) Call(h *Handler) error { return nil }

// Downcall is a declared downcall's index.
type Downcall uint32

// DeclareDowncall numbers a downcall a handler body may make.
func DeclareDowncall(name string) Downcall { return 0 }

// DowncallHandler is a kernel-side target: a scalar in, a scalar out.
type DowncallHandler func(kctx *kernel.Context, arg uint64) (uint64, error)

// BindDowncall installs the kernel-side target of a declared downcall.
func (r *Runtime) BindDowncall(d Downcall, fn DowncallHandler) {}

// Ctx is what a handler body sees; Downcall is its only way into the
// kernel.
type Ctx struct{}

// Downcall crosses into the kernel-side target bound to d.
func (c *Ctx) Downcall(d Downcall, arg uint64) (uint64, error) { return 0, nil }
