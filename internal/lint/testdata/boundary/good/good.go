// Package good is decaf-side code that crosses correctly: it calls handlers
// by handle, and its handler bodies reach the kernel only through declared
// downcalls.
//
//decaf:boundary
package good

import (
	"decafdrivers/internal/lint/testdata/boundary/internal/kernel"
	"decafdrivers/internal/lint/testdata/boundary/internal/xpc"
)

var (
	downReset = xpc.DeclareDowncall("reset")
	hOpen     = xpc.Register("open", xpc.Handler{Fn: Probe})
)

// Open charges the capability it was handed, then crosses by handle.
func Open(rt *xpc.Runtime, ctx *kernel.Context) error {
	ctx.Charge(kernel.MaxFrame)
	return rt.Call(hOpen)
}

// Probe is a handler body: the kernel-side work sits behind a downcall.
func Probe(c *xpc.Ctx) error {
	_, err := c.Downcall(downReset, 0)
	return err
}
