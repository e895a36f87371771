//go:build unix && !linux

package xpc

// adviseRandom is a no-op where the syscall package has no madvise.
func adviseRandom([]byte) {}
