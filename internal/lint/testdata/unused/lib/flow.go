package lib

import (
	"io"
	"sync"
)

// Handle has io-shaped methods, but no value of it ever becomes an
// interface value: io.Closer and fmt.Stringer reach neither.
type Handle struct{}

func (Handle) Close() error { return nil } // want "method (Handle).Close has no reference"

func (Handle) String() string { return "handle" } // want "method (Handle).String has no reference"

// ArgConn escapes as an argument: the consumer prints it.
type ArgConn struct{}

func (ArgConn) Close() error { return nil }

func (ArgConn) String() string { return "arg" }

// RetConn escapes as a return value.
type RetConn struct{}

func (RetConn) Close() error { return nil }

func (RetConn) String() string { return "ret" }

// Open returns a RetConn as an io.Closer.
func Open() io.Closer { return RetConn{} }

// LitConn escapes as a composite-literal element.
type LitConn struct{}

func (LitConn) Close() error { return nil }

func (LitConn) String() string { return "lit" }

// Closers holds a LitConn as an io.Closer.
var Closers = []io.Closer{LitConn{}}

// Inner escapes by being embedded in Outer, which the consumer prints.
type Inner struct{}

func (Inner) Close() error { return nil }

func (Inner) String() string { return "inner" }

// Outer embeds Inner.
type Outer struct{ Inner }

// TestConn becomes an interface value only in lib's own tests.
type TestConn struct{}

func (TestConn) Close() error { return nil } // want "method (TestConn).Close is referenced only by its own package's tests"

// Meter holds the field cases.
type Meter struct {
	mu      sync.Mutex // read: Lock is a method call on it
	total   int        // want "field Meter.total is never read"
	samples []int      // want "field Meter.samples is never read"
	seen    int        // want "field Meter.seen is read only by its own package's tests"
	stats   struct {   // want "field Meter.stats is never read"
		hits int // want "field Meter.stats.hits is never read"
	}
	Label string `json:"label"`
	Extra int    // want "field Meter.Extra is read nowhere in the module"
}

// Add writes every field but reads only mu.
func (m *Meter) Add(v int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += v
	m.samples = append(m.samples, v)
	m.seen++
	m.stats.hits++
}

// Report's exported field is read by nobody but fmt, which the consumer
// hands a Report.
type Report struct{ Count int }

// pairKey is compared only as a map key, which reads its fields.
type pairKey struct{ a, b int }

// Pairs counts distinct pairs.
func Pairs(n int) int {
	m := map[pairKey]bool{}
	m[pairKey{a: n, b: n}] = true
	return len(m)
}
