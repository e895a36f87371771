//go:build linux

package xpc

import "syscall"

// adviseRandom marks a shared mapping as touched at random. The region is
// a fresh sparse file, and without the advice the first touch of each part
// of it reads around the fault: on a filesystem with large page-cache folios
// that zero-fills megabytes (about 1.5 ms per first touch on a 2-vCPU VM
// over ext4), and the kernel side's first touches (the layout header and
// the lane rings) sit on the spawn path before the worker starts. The advice only costs speed if
// refused, so its error is dropped.
func adviseRandom(mem []byte) { _ = syscall.Madvise(mem, syscall.MADV_RANDOM) }
