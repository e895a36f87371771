// Package decafdrivers is a reproduction of "Decaf: Moving Device Drivers
// to a Modern Language" (Renzelmann & Swift, USENIX ATC 2009) as a Go
// library: the XPC communication substrate, the DriverSlicer tool, a
// simulated Linux-like kernel and register-level device models, the five
// converted drivers, and a benchmark harness regenerating every table in
// the paper's evaluation.
//
// Beyond the paper's measured configuration, the crossing layer implements
// the three §4.2 optimizations end to end: batched crossings
// (xpc.BatchTransport), asynchronous submit/complete crossings
// (xpc.AsyncTransport), and zero-copy payloads (xpc.PayloadRing — frames
// live in a pool of buffers registered once with the transport, and
// data-carrying calls cross a twelve-byte slot descriptor instead of
// marshaling payload bytes, falling back to the copy path on exhaustion).
// The decafbench batch, async and zerocopy tables quantify each step.
//
// The transports differ in crossings, copies and isolation:
//
//	sync   1 crossing per call, inline; contained panic (recover);
//	       the default, "per-call": xpc.BatchTransport{N: 1}
//	batch  1 crossing per ≤N calls, inline; fault aborts the flush
//	async  1 crossing per ≤N calls on the decaf goroutine's timeline;
//	       a fault fails only its own completion
//	proc   1 crossing per ≤N calls into a forked worker process
//	       (xpc.ProcTransport): steady state rides SPSC shared-memory
//	       descriptor rings — frames encoded in place in the mmap
//	       mapping, published with one atomic store, zero syscalls and
//	       zero allocations per crossing, nested downcalls included —
//	       with a park/doorbell wakeup protocol and the socketpair left
//	       carrying handshake control frames only; payload rings are mmap-shared
//	       memory the worker checksums through its own mapping, and
//	       fault containment is physical — a decaf panic SIGKILLs the
//	       worker and recovery respawns a process that actually died
//
// Decaf call bodies live in a process-global handler table
// (internal/decaf/registry) dispatched by name: under the proc transport
// the body executes in the worker's address space (the worker re-execs the
// same binary, so init() builds the identical table), with shared driver
// state in shm-backed cells and nested downcalls crossing back for real;
// the in-process transports dispatch the same bodies inline. psmouse,
// rtl8139, ens1371 and uhcihcd cross through the table only (every decaf
// body of theirs runs in the worker); e1000 still runs probe/open/close as
// closures, which execute in the kernel process under every transport, so
// only its data-path handlers and watchdog are isolated. The declared
// per-call cost is charged kernel-side either way, so the virtual cost
// model is identical to batch and crossings per packet
// are comparable across all transports while Counters.RingCrossings,
// DoorbellWakeups, SyscallCrossings and WireBytesOut/In meter the real
// boundary: descriptor-ring traffic, doorbell syscalls (the only syscalls a
// crossing can pay), and socketpair control frames. decafbench's async and zerocopy rows add
// caller-visible p50/p99/p999 completion latency and GC pause/cycle
// columns, banded in CI against the committed BENCH_*.json baselines.
//
// On top of fault containment, internal/recovery adds a shadow-driver-style
// recovery subsystem: a Supervisor consumes the runtime's fault
// notifications, quiesces the crashed driver, rebuilds its decaf-side state
// (fresh shared objects, a re-registered payload ring), and replays a
// StateJournal of configuration-establishing crossings under a restart
// policy (immediate, exponential backoff, fail-stop on an exhausted
// budget). During recovery the kernel-facing surface makes the device look
// slow, not dead: knet.NetDevice holds and replays transmit frames with
// explicit accounting, and the sound driver's PCM ops journal their intent
// and defer. Journaling is kernel-side bookkeeping, so steady-state
// crossings per packet are unchanged until a fault actually fires; the
// decafbench recovery table verifies exactly that, next to recovery latency
// and the dropped-versus-replayed split.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and substitution notes, and EXPERIMENTS.md for paper-vs-measured
// results. The root package exists to host the repository-level benchmarks
// in bench_test.go; the implementation lives under internal/.
package decafdrivers
