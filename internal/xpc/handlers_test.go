package xpc

import (
	"errors"
	"os"
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

	// dcReadReg is the downcall the Down test bodies make; each test binds
	// its own target.
	dcReadReg = registry.DeclareDowncall("xpctest_read_reg")
	// dcUnbound is declared and never bound: a body naming it is refused.
	dcUnbound = registry.DeclareDowncall("xpctest_unbound")

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

// The test handlers' handles, assigned where they are registered.
var hCount, hPanic, hFail, hDown, hDownFree, hDownMany, hStore, hLongName *registry.Handler

func init() {
	hCount = registry.Register("xpctest_count", registry.Handler{
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
	hPanic = registry.Register("xpctest_panic", registry.Handler{
		Cost: 100 * time.Nanosecond,
		Fn: func(c *registry.Ctx) error {
			panic("worker-side boom")
		},
	})
	hFail = registry.Register("xpctest_fail", registry.Handler{
		Cost: 100 * time.Nanosecond,
		Fn: func(c *registry.Ctx) error {
			if len(c.Data) > 0 && c.Data[0] == 1 {
				return errors.New("requested failure")
			}
			c.State.Add(testCellServed, 1)
			return nil
		},
	})
	hDown = registry.Register("xpctest_down", registry.Handler{
		Cost: 200 * time.Nanosecond,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			v, err := c.Downcall(dcReadReg, 7)
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
	hDownFree = registry.Register("xpctest_down_free", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			_, err := c.Downcall(dcReadReg, 0)
			return err
		},
	})
	// xpctest_down_many calls down Data[0] times, summing the results into
	// the down cell, then stores its last payload byte in the echo cell: the
	// inline payload has to outlive every result that passed through the
	// submit ring the call itself arrived on.
	hDownMany = registry.Register("xpctest_down_many", registry.Handler{
		Cost: 200 * time.Nanosecond,
		Down: true,
		Fn: func(c *registry.Ctx) error {
			var sum uint64
			for i := 0; i < int(c.Data[0]); i++ {
				v, err := c.Downcall(dcReadReg, uint64(i))
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
	hStore = registry.Register("xpctest_store", registry.Handler{Fn: func(c *registry.Ctx) error {
		c.State.Store(testCellStore, uint64(c.Data[0]))
		return nil
	}})
	hLongName = registry.Register(longNameHandler, registry.Handler{Fn: func(c *registry.Ctx) error {
		testParentRan.Add(1)
		c.State.Add(testCellServed, 1)
		return nil
	}})
}

// workerExtraDowncallEnv, set in the environment a worker is spawned with,
// has that worker declare one downcall more than the kernel side: the
// downcall-table case of TestProcHandlerTableDigestRefused. It is read in
// init(), after every package-level declaration, so it only appends.
const workerExtraDowncallEnv = "XPCTEST_WORKER_EXTRA_DOWNCALL"

func init() {
	if os.Getenv(workerExtraDowncallEnv) != "" {
		registry.DeclareDowncall("xpctest_worker_only")
	}
}

// handlerCall builds the Call Batch.CallData queues for the handler
// registered under name.
func handlerCall(name string, data []byte) *Call {
	h := registry.Lookup(name)
	return &Call{Name: name, Up: true, Data: data, h: h, id: h.ID()}
}

// handlerSubs builds one admitted-by-Submit chunk of handler calls, so a
// test can read each call's own completion.
func handlerSubs(r *Runtime, calls ...string) []*Submission {
	subs := make([]*Submission, len(calls))
	for i, name := range calls {
		subs[i] = r.NewSubmission(handlerCall(name, []byte{byte(i + 1)}))
	}
	return subs
}
