// Package decafdrivers is a reproduction of "Decaf: Moving Device Drivers
// to a Modern Language" (Renzelmann & Swift, USENIX ATC 2009) as a Go
// library: the XPC communication substrate, the DriverSlicer tool, a
// simulated Linux-like kernel and register-level device models, the five
// converted drivers, and a benchmark harness regenerating every table in
// the paper's evaluation.
//
// Beyond the paper's measured configuration, the crossing layer implements
// two §4.2 optimizations end to end: batched crossings (xpc.BatchTransport)
// and zero-copy payloads (xpc.PayloadRing — frames live in a pool of
// buffers registered once with the transport, and data-carrying calls cross
// a twelve-byte slot descriptor instead of marshaling payload bytes,
// falling back to the copy path on exhaustion). internal/workload's
// TestNetperfGoldenCounts pins the crossings and bytes of each step.
//
// Two transport types, three configurations, differ in crossings, copies
// and isolation:
//
//	sync   1 crossing per call, inline; contained panic (recover);
//	       the default, "per-call": xpc.BatchTransport{N: 1}
//	batch  1 crossing per ≤N calls, inline; fault aborts the flush
//	proc   1 crossing per ≤N calls into a forked worker process
//	       (xpc.ProcTransport): steady state rides SPSC shared-memory
//	       descriptor rings — frames encoded in place in the mmap
//	       mapping, published with one atomic store, zero syscalls and
//	       zero allocations per crossing, nested downcalls included —
//	       with a park/doorbell wakeup protocol; the worker reads the
//	       region's layout from a header in it, so the socketpair carries
//	       one acknowledgement per worker epoch; payload rings are mmap-shared
//	       memory the worker checksums through its own mapping, and
//	       fault containment is physical — a decaf panic SIGKILLs the
//	       worker and recovery respawns a process that actually died
//
// Decaf call bodies live in a process-global handler table
// (internal/decaf/registry) dispatched by index — a driver crosses with the
// handle Register returned, never a name: under the proc transport
// the body executes in the worker's address space (the worker re-execs the
// same binary, so init() builds the identical table), with shared driver
// state in shm-backed cells and nested downcalls crossing back for real;
// the in-process transports dispatch the same bodies inline. The table is
// the only way to cross — xpc takes no closure — so every decaf body of all
// five drivers runs in the worker. The declared
// per-call cost is charged kernel-side either way, so the virtual cost
// model is identical to batch and crossings per packet
// are comparable across all transports while Counters.RingCrossings,
// DoorbellWakeups, SyscallCrossings and WireBytesOut/In meter the real
// boundary: descriptor-ring traffic, doorbell syscalls (the only syscalls a
// crossing can pay), and the worker's layout acknowledgements. The
// wall-clock harness (benchmark/) times the real boundary; virtual time
// prices only the modeled trip.
//
// On top of fault containment, internal/recovery adds a shadow-driver-style
// recovery subsystem: a Supervisor consumes the runtime's fault
// notifications, quiesces the crashed driver, rebuilds its decaf-side state
// (cleared probe cells, a re-registered payload ring), and replays a
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
