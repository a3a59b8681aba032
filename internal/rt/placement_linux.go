//go:build linux

package rt

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's cpu_set_t: one bit per CPU, for up to 1024 CPUs.
type cpuMask [1024 / 64]uint64

// placements rotates the first CPU between registries, so that fleets alive
// at the same time do not all start on the lowest CPU of the mask.
var placements atomic.Uint64

// affinity reads the calling thread's CPU mask; ok is false when the kernel
// refuses. For a goroutine not locked to a thread that is the process's
// mask, since every thread a worker binds stays locked to it.
func affinity() (m cpuMask, ok bool) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

// placement returns the CPU each of nthreads workers binds to: distinct CPUs
// of the mask, in mask order from a rotating start. It returns nil, leaving
// placement to the kernel, when the mask cannot be read or holds fewer than
// nthreads CPUs, since binding an oversubscribed fleet would fix two workers
// on one CPU for good.
func placement(nthreads int) []int {
	m, ok := affinity()
	if !ok {
		return nil
	}
	var cpus []int
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			cpus = append(cpus, w*64+bits.TrailingZeros64(word))
		}
	}
	if len(cpus) < nthreads {
		return nil
	}
	start := int((placements.Add(1) - 1) % uint64(len(cpus)))
	out := make([]int, nthreads)
	for tid := range out {
		out[tid] = cpus[(start+tid)%len(cpus)]
	}
	return out
}

// bind locks the calling goroutine to its OS thread and restricts the thread
// to cpu. The thread is never unlocked, so it ends with the goroutine and no
// other goroutine ever runs on a one-CPU thread. If the kernel refuses, the
// thread's mask is unchanged and the goroutine runs unpinned and unlocked.
func bind(cpu int) {
	runtime.LockOSThread()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		runtime.UnlockOSThread()
	}
}
