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

type dev struct {
	rt  *xpc.Runtime
	nuc *nucleus
}

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

// probe hands kernel-side work across in a closure, which is checked like
// the code around it.
//
//decaf:boundary
func (d *dev) probe() error {
	return d.rt.Downcall("probe", func() {
		kernel.Poke()    // want "calls kernel-side kernel.Poke directly"
		kernel.Ticks = 0 // want "reaches kernel-side variable kernel.Ticks directly"
	})
}
