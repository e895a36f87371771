//go:build unix

package xpc

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// shmRegion is a file-backed shared memory mapping: the kernel side creates
// and maps it, and passes the (already unlinked) file descriptor to the
// worker process, which maps the same pages into its own address space. The
// region backs the payload ring under a ProcTransport, so zero-copy slot
// descriptors resolve to the same physical bytes on both sides of a real
// process boundary.
type shmRegion struct {
	file *os.File
	mem  []byte
}

// newShmRegion creates and maps an anonymous (unlinked) shared file of n
// bytes.
func newShmRegion(n int) (*shmRegion, error) {
	f, err := os.CreateTemp("", "decaf-xpc-shm-*")
	if err != nil {
		return nil, fmt.Errorf("xpc: shm create: %w", err)
	}
	// Unlink immediately: the region lives exactly as long as the mapped
	// descriptors do, in this process and the workers that inherit it.
	_ = os.Remove(f.Name())
	if err := f.Truncate(int64(n)); err != nil {
		f.Close()
		return nil, fmt.Errorf("xpc: shm truncate: %w", err)
	}
	mem, err := mapShared(f, n)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &shmRegion{file: f, mem: mem}, nil
}

func (s *shmRegion) Close() error {
	if s == nil {
		return nil
	}
	if s.mem != nil {
		_ = syscall.Munmap(s.mem)
		s.mem = nil
	}
	s.closeFile()
	return nil
}

// closeFile releases the descriptor but leaves the mapping intact — for
// teardown paths where rings sliced from the mapping may still be
// referenced (unmapping under them would turn a late access into a
// SIGSEGV; the pages are reclaimed at process exit).
func (s *shmRegion) closeFile() {
	if s != nil && s.file != nil {
		_ = s.file.Close()
		s.file = nil
	}
}

// mapShared maps n bytes of f MAP_SHARED read/write, advised as touched
// at random.
func mapShared(f *os.File, n int) ([]byte, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("xpc: shm mmap %d bytes: %w", n, err)
	}
	adviseRandom(mem)
	return mem, nil
}

// socketPair returns a connected AF_UNIX stream pair as files: the parent
// end stays in this process, the child end is handed to the worker via
// ExtraFiles.
func socketPair() (parent, child *os.File, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("xpc: socketpair: %w", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	// The parent end goes nonblocking before os.NewFile so it registers
	// with the runtime poller: that is what makes SetDeadline work, the
	// guard against a wedged (alive but unresponsive) worker blocking a
	// crossing forever. The child end stays blocking for the worker's
	// simple sequential loop.
	_ = syscall.SetNonblock(fds[0], true)
	return os.NewFile(uintptr(fds[0]), "xpc-proc-parent"), os.NewFile(uintptr(fds[1]), "xpc-proc-child"), nil
}

// fdDoorbell is the descriptor-ring doorbell over one end of the dedicated
// doorbell socketpair (child fd 5): ring writes one byte to wake the parked
// peer; wait blocks reading until a byte (or several — stale doorbells are
// drained together) arrives. The peer's death closes its end, so a parked
// wait also doubles as a fast worker-death detector: EOF, not a 30s
// timeout. A doorbell has one waiter at a time (the lane's claim holder, or
// the worker's serve goroutine), which is what lets wait drain into a buffer
// of the doorbell's own: it is used by pointer, so passing it as the
// doorbell interface — and parking on it, in a race build too, where a
// stack buffer handed to Read is moved to the heap — allocates nothing.
type fdDoorbell struct {
	f     *os.File
	drain [64]byte
}

// ring wakes the parked peer with one byte.
//
//decaf:hotpath
func (d *fdDoorbell) ring() error {
	_, err := d.f.Write(doorbellByte[:])
	return err
}

// wait blocks until the peer rings, draining stale doorbell bytes.
//
//decaf:hotpath
func (d *fdDoorbell) wait(deadline time.Time) error {
	// The parent end is nonblocking (poller-registered), so the deadline
	// takes effect; the worker end is blocking and passes a zero deadline,
	// where SetReadDeadline fails harmlessly and Read blocks indefinitely.
	_ = d.f.SetReadDeadline(deadline)
	_, err := d.f.Read(d.drain[:])
	return err
}
