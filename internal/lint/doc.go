// Package lint is decafvet: a static checker suite that enforces the
// decaf architecture's boundary, hot-path, and shared-memory invariants
// on the real Go tree, plus the paper's §5.1 error-handling audit and a
// rule that keeps API without a caller out.
//
// The runtime already polices these invariants dynamically — the XPC
// exception path catches boundary faults, the alloc-gate benchmark fails
// on a heap-allocating crossing, the race detector catches unsynchronised
// ring access. Each analyzer here moves one of those checks to compile
// time, so a violation fails `go run ./cmd/decafvet ./...` (wired into
// CI's lint job) instead of a matrix job minutes later, and points at the
// offending expression instead of a symptom.
//
// Analyzers are opted in by directive comments (written like //go:
// directives, no space after the slashes):
//
//   - boundary — code marked //decaf:boundary (a package doc, function,
//     type, or package-level var, whose initializers are then checked) is
//     decaf-side: it may not reach kernel-side packages
//     (internal/kernel, internal/hw, the k* device stacks) or
//     //decaf:nucleus types at all, function literals included (no xpc
//     crossing takes a closure: it passes a registered handler's handle).
//     The decaf-side bodies are registry handlers (each driver's
//     handlers.go init() registration, which assigns the handles, carries
//     the annotation): a handler Fn sees only its registry.Ctx — payload
//     bytes, shared state cells, and the Downcall hook — and the
//     kernel-side resources it needs live behind per-Runtime BindDowncall
//     targets of declared downcalls, which are nucleus code.
//     The analyzer keeps handler bodies honest about that contract: under
//     ProcTransport they execute in the worker's address space, where a
//     direct kernel-side reference is a different process's memory; the
//     in-process transports would happily let a stray direct call
//     through, and this check is what stops one from creeping in.
//
//   - hotpath — functions marked //decaf:hotpath must not contain
//     heap-allocating constructs: make/new/append, escaping composite
//     literals, capturing closures, interface boxing, string
//     concatenation, range over map. Cold regions (branches that
//     terminate via return/panic) are exempt, and //decaf:allowalloc
//     <reason> suppresses the next line for deliberate exceptions.
//     Complements the alloc-gate CI job, which only measures the one
//     benchmarked path.
//
//   - sharedmem — struct fields marked //decaf:shared live in
//     cross-process shared memory and may only be touched through
//     sync/atomic (atomic.Uint64-style methods or atomic.*(&f, ...)
//     calls). Complements the race detector, which cannot see the other
//     process.
//
//   - erraudit — no annotation; runs over internal/drivers/... and
//     cmd/... and reports the paper's §5.1 defect taxonomy (ignored,
//     overwritten, abandoned, misrouted errors) through the shared
//     analysis.Defect format, so findings on real Go read identically to
//     the toy-IR audit's numbers.
//
//   - unused — no annotation; reports a package-level func, method, type,
//     var or const of a non-main module package outside testdata that
//     nothing references but its own declaration and its own package's
//     tests. Non-test code anywhere in the module counts (cmd/, examples/
//     and benchmark/ included), and so does another package's test for an
//     exported identifier; a generic instantiation resolves to its origin.
//     A method also counts as used when its type escapes — some code
//     converts a value of it to an interface type (by assignment, var
//     initialisation, argument, return, composite-literal element, send or
//     conversion; an escaping struct takes its exported and embedded field
//     types with it) — and provides it to an interface it satisfies (the
//     stdlib's error and fmt.Stringer included). A type that never becomes
//     an interface value keeps only its direct references. The rule also
//     reports a struct field nothing reads: assignment, op=, ++/--, a
//     composite-literal key and the x.f of x.f = append(x.f, …) write it,
//     every other use (a method call, an atomic, &x.f, == on its struct)
//     reads it. An unexported field is reported when no non-test code reads
//     it, an exported one when nothing in the module reads it, it has no tag
//     and its struct never escapes. Test-only API is deleted with its tests,
//     or moves into an export_test.go. There is no allowlist and no escape
//     annotation.
//
// Everything is stdlib-only (go/ast, go/parser, go/types): Module loads
// and type-checks packages with a source importer (test files too, for
// unused's reference index), Run applies the analyzers and returns sorted
// Findings, and cmd/decafvet is the CLI with -json and -list modes.
package lint
