// Package bad holds boundary violations: decaf-side code reaching kernel
// state without crossing.
package bad

import (
	"decafdrivers/internal/lint/testdata/boundary/internal/kernel"
	"decafdrivers/internal/lint/testdata/boundary/internal/xpc"
)

// nucleus is the kernel-side half living in the same package.
//
//decaf:nucleus
type nucleus struct{ irqs int }

func (n *nucleus) reset() { n.irqs = 0 }

type dev struct{ nuc *nucleus }

// open is decaf-side and breaks the boundary four ways.
//
//decaf:boundary
func (d *dev) open(ctx *kernel.Context) error {
	ctx.Charge(kernel.MaxFrame) // Context method + constant: both allowed
	kernel.Poke()               // want "calls kernel-side kernel.Poke directly"
	kernel.Ticks = 1            // want "reaches kernel-side variable kernel.Ticks directly"
	d.nuc.reset()               // want "calls nucleus method (nucleus).reset directly"
	d.nuc.irqs = 2              // want "writes nucleus field (nucleus).irqs directly"
	return nil
}

// downReset is the downcall probe makes.
var downReset = xpc.DeclareDowncall("reset")

// register binds the kernel-side target of the "reset" downcall: nucleus
// code, where reaching the nucleus is the point.
func (n *nucleus) register(rt *xpc.Runtime) {
	rt.BindDowncall(downReset, func(*kernel.Context, uint64) (uint64, error) {
		n.reset()
		return 0, nil
	})
}

// nuc is the driver's nucleus instance.
var nuc = &nucleus{}

// probe is a handler body: it crosses to reset the nucleus by handle, then
// reaches the nucleus directly as well.
//
//decaf:boundary
func probe(c *xpc.Ctx) error {
	if _, err := c.Downcall(downReset, 0); err != nil {
		return err
	}
	nuc.reset()  // want "calls nucleus method (nucleus).reset directly"
	nuc.irqs = 2 // want "writes nucleus field (nucleus).irqs directly"
	return nil
}

// hStart is the handle the kernel side crosses with, assigned where the
// body is registered.
var hStart *xpc.Handler

// init registers a body the way drivers do — assigning its handle to a
// package-level var inside the annotated init — and that body reaches the
// kernel directly: the rule still sees it.
//
//decaf:boundary
func init() {
	hStart = xpc.Register("start", xpc.Handler{Fn: func(c *xpc.Ctx) error {
		kernel.Poke() // want "calls kernel-side kernel.Poke directly"
		return nil
	}})
}

// hStop is registered from a package-level initializer marked like a
// boundary function, and its body reaches the kernel directly: the rule
// checks initializers too.
//
//decaf:boundary
var hStop = xpc.Register("stop", xpc.Handler{Fn: func(c *xpc.Ctx) error {
	kernel.Poke() // want "calls kernel-side kernel.Poke directly"
	return nil
}})
