// Package good is decaf-side code that crosses correctly: it calls handlers
// by name, and its handler bodies reach the kernel only through named
// downcalls.
//
//decaf:boundary
package good

import (
	"decafdrivers/internal/lint/testdata/boundary/internal/kernel"
	"decafdrivers/internal/lint/testdata/boundary/internal/xpc"
)

// Open charges the capability it was handed, then crosses by name.
func Open(rt *xpc.Runtime, ctx *kernel.Context) error {
	ctx.Charge(kernel.MaxFrame)
	return rt.UpcallHandler("open")
}

// Probe is a handler body: the kernel-side work sits behind a downcall.
func Probe(c *xpc.Ctx) error {
	_, err := c.Downcall("reset", 0)
	return err
}
