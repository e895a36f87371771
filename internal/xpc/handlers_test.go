package xpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/xdr"
)

// Test handlers and cells, registered at init() so the re-exec'd worker (a
// copy of this test binary) holds the identical table and cell indices.
// Every test in the package crosses through these: what a body did shows
// in the cells, and its modeled cost in Handler.Cost.
var (
	testCellServed = registry.RegisterCell("xpctest.served")
	testCellEcho   = registry.RegisterCell("xpctest.echo")
	testCellDown   = registry.RegisterCell("xpctest.down")
	// testCellStore is what the xpctest_store body writes: its payload's
	// first byte.
	testCellStore = registry.RegisterCell("xpctest.store")

	// testParentRan counts executions of the dispatch handlers in THIS
	// process: under the proc transport it must stay flat while the shared
	// cells move — the proof the body ran in the worker's address space,
	// not merely "was routed through new plumbing".
	testParentRan atomic.Uint64
)

// xpctestCountCost is xpctest_count's modeled cost: the only virtual time
// a native-mode dispatch of it charges.
const xpctestCountCost = 500 * time.Nanosecond

// longNameHandler is registered under a name no frame's name field could
// carry: a call crosses as its table index, so the proc transport serves it
// like any other.
var longNameHandler = strings.Repeat("n", xdr.MaxFrameName+1)

func init() {
	registry.Register("xpctest_count", registry.Handler{
		Cost: xpctestCountCost,
		Fn: func(c *registry.Ctx) error {
			testParentRan.Add(1)
			c.State.Add(testCellServed, 1)
			if len(c.Data) > 0 {
				c.State.Store(testCellEcho, uint64(c.Data[0]))
			}
			return nil
		},
	})
	registry.Register("xpctest_panic", registry.Handler{
		Cost: 100 * time.Nanosecond,
		Fn: func(c *registry.Ctx) error {
			panic("worker-side boom")
		},
	})
	registry.Register("xpctest_fail", registry.Handler{
		Cost: 100 * time.Nanosecond,
		Fn: func(c *registry.Ctx) error {
			if len(c.Data) > 0 && c.Data[0] == 1 {
				return errors.New("requested failure")
			}
			c.State.Add(testCellServed, 1)
			return nil
		},
	})
	registry.Register("xpctest_down", registry.Handler{
		Cost: 200 * time.Nanosecond,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			v, err := c.Downcall("xpctest_read_reg", 7)
			if err != nil {
				return err
			}
			c.State.Store(testCellDown, v)
			return nil
		},
	})
	// xpctest_down_free is xpctest_down with no modeled cost and no cell
	// write: under ZeroLatencyModel it writes nothing on the decaf context,
	// so concurrent inline submitters may cross it on one runtime.
	registry.Register("xpctest_down_free", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, err := c.Downcall("xpctest_read_reg", 0)
			return err
		},
	})
	// xpctest_down_many calls down Data[0] times, summing the results into
	// the down cell, then stores its last payload byte in the echo cell: the
	// inline payload has to outlive every result that passed through the
	// submit ring the call itself arrived on.
	registry.Register("xpctest_down_many", registry.Handler{
		Cost: 200 * time.Nanosecond,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			var sum uint64
			for i := 0; i < int(c.Data[0]); i++ {
				v, err := c.Downcall("xpctest_read_reg", uint64(i))
				if err != nil {
					return err
				}
				sum += v
			}
			c.State.Store(testCellDown, sum)
			c.State.Store(testCellEcho, uint64(c.Data[len(c.Data)-1]))
			return nil
		},
	})
	registry.Register("xpctest_store", registry.Handler{Fn: func(c *registry.Ctx) error {
		c.State.Store(testCellStore, uint64(c.Data[0]))
		return nil
	}})
	registry.Register(longNameHandler, registry.Handler{Fn: func(c *registry.Ctx) error {
		testParentRan.Add(1)
		c.State.Add(testCellServed, 1)
		return nil
	}})
}

// handlerSubs builds one admitted-by-Submit chunk of handler calls, so a
// test can read each call's own completion.
func handlerSubs(r *Runtime, calls ...string) []*Submission {
	subs := make([]*Submission, len(calls))
	for i, name := range calls {
		subs[i] = r.NewSubmission(&Call{Name: name, Up: true, h: registry.Lookup(name), Data: []byte{byte(i + 1)}})
	}
	return subs
}
