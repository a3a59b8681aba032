package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only when
// nothing else wants the CPU and is preempted the moment anything does.
const schedIdle = 5

// keepAwake spins one SCHED_IDLE thread per CPU until the returned stop is
// called, and reports whether it could. An open-loop workload leaves the
// CPUs idle half the time in sub-millisecond gaps; on the 2-CPU box that
// made the host clock the CPUs down in episodes (about 7 s in every 20)
// during which the fleet lost a third of its capacity and latencies doubled —
// while closed loops, which never let a CPU idle, ran steadily. The spinners
// keep the virtual CPUs from halting so the open loop is measured at the same
// clock as everything else; they cost the workers nothing but a context
// switch, because SCHED_IDLE yields to any runnable thread at once.
func keepAwake() (stop func(), ok bool) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	started := make(chan bool)
	n := runtime.NumCPU()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			// Not unlocked: the runtime ends the thread with the goroutine, so
			// a thread demoted to SCHED_IDLE never serves other goroutines.
			var param struct{ priority int32 }
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			started <- errno == 0
			if errno != 0 {
				return
			}
			x := uint64(1)
			for !halt.Load() {
				x = spin(x, 256)
			}
			sink.Store(x)
		}()
	}
	ok = true
	for i := 0; i < n; i++ {
		ok = <-started && ok
	}
	return func() { halt.Store(true); wg.Wait() }, ok
}
