// Package lint is decafvet: a static checker suite that enforces the
// decaf architecture's boundary, hot-path, and shared-memory invariants
// on the real Go tree, plus the paper's §5.1 error-handling audit.
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
//     or type) is decaf-side: it may not reach kernel-side packages
//     (internal/kernel, internal/hw, the k* device stacks) or
//     //decaf:nucleus types at all, function literals included (no xpc
//     crossing takes a closure: it names a registered handler). The
//     decaf-side bodies are registry handlers (each driver's
//     handlers.go init() registration carries the annotation): a handler
//     Fn sees only its registry.Ctx — payload bytes, shared state cells,
//     and the Downcall hook — and the kernel-side resources it needs live
//     behind per-Runtime RegisterDowncall targets, which are nucleus code.
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
// Everything is stdlib-only (go/ast, go/parser, go/types): Module loads
// and type-checks packages with a source importer, Run applies the
// analyzers and returns sorted Findings, and cmd/decafvet is the CLI with
// -json and -list modes.
package lint
