package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick unit for /proc/<pid>/stat times. Linux
// fixes USER_HZ at 100 on every architecture Go supports.
const userHZ = 100

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The comm field (2nd) is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procstat: no comm field in %q", stat)
	}
	// After the comm: state(3) ppid(4) ... utime(14) stime(15).
	f := strings.Fields(string(stat[i+1:]))
	const utimeIdx, stimeIdx = 14 - 3, 15 - 3
	if len(f) <= stimeIdx {
		return 0, fmt.Errorf("procstat: %d fields after comm, want > %d", len(f), stimeIdx)
	}
	ut, err := strconv.ParseUint(f[utimeIdx], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[stimeIdx], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: stime: %w", err)
	}
	return time.Duration(ut+st) * (time.Second / userHZ), nil
}

// parseStatusKB extracts one "Key:   123 kB" line from /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procstat: no %s line", key)
}

// liveCPU reads the CPU time a live process has consumed so far. A pid of 0
// or a process that has already gone (its time then shows up in
// RUSAGE_CHILDREN once reaped) reads as zero.
func liveCPU(pid int) time.Duration {
	if pid <= 0 {
		return 0
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	d, err := parseStatCPU(b)
	if err != nil {
		return 0
	}
	return d
}

// liveRSSMB reads a live process's resident-set high-water mark.
func liveRSSMB(pid int) float64 {
	if pid <= 0 {
		return 0
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	kb, err := parseStatusKB(b, "VmHWM")
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}

// rusage reads user+system CPU and the peak RSS in KB of this process
// (RUSAGE_SELF) or of the children it has waited for (RUSAGE_CHILDREN).
func rusage(who int) (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// familyCPU is the user+system CPU consumed so far by this process, every
// worker it has reaped, and the live worker: a monotone total, so a window's
// cost is the difference of two readings even when workers die in between.
func familyCPU(workerPID int) time.Duration {
	self, _ := rusage(syscall.RUSAGE_SELF)
	reaped, _ := rusage(syscall.RUSAGE_CHILDREN)
	return self + reaped + liveCPU(workerPID)
}

// familyRSSMB is the parent's peak RSS plus the live worker's.
func familyRSSMB(workerPID int) float64 {
	_, kb := rusage(syscall.RUSAGE_SELF)
	return float64(kb)/1024 + liveRSSMB(workerPID)
}
