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

// register installs the kernel-side target of the "reset" downcall: nucleus
// code, where reaching the nucleus is the point.
func (n *nucleus) register(rt *xpc.Runtime) {
	rt.RegisterDowncall("reset", func(*kernel.Context, uint64) (uint64, error) {
		n.reset()
		return 0, nil
	})
}

// nuc is the driver's nucleus instance.
var nuc = &nucleus{}

// probe is a handler body: it crosses to reset the nucleus by name, then
// reaches the nucleus directly as well.
//
//decaf:boundary
func probe(c *xpc.Ctx) error {
	if _, err := c.Downcall("reset", 0); err != nil {
		return err
	}
	nuc.reset()  // want "calls nucleus method (nucleus).reset directly"
	nuc.irqs = 2 // want "writes nucleus field (nucleus).irqs directly"
	return nil
}
