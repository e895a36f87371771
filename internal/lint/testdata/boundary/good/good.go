// Package good is decaf-side code that crosses correctly: it names the
// crossing and carries no kernel-side code across in a closure.
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
