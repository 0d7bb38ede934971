package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is large enough for 1024 CPUs, the kernel's default CPU_SETSIZE.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var out []int
	for w, bits := range m {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				out = append(out, w*64+b)
			}
		}
	}
	return out, nil
}

// pinSelf restricts every thread of this process to cpus. Threads the runtime
// creates later inherit the mask of the thread that clones them; a second
// pass catches any thread born during the first.
func pinSelf(cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		if c < 0 || c >= len(m)*64 {
			return fmt.Errorf("cpu %d out of range", c)
		}
		m[c/64] |= 1 << uint(c%64)
	}
	for pass := 0; pass < 2; pass++ {
		err := eachThread(func(tid uintptr) syscall.Errno {
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, tid, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			return errno
		})
		if err != nil {
			return fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	return nil
}

// eachThread applies a scheduling syscall to every thread of this process. A
// thread that exited meanwhile (ESRCH) is not an error.
func eachThread(call func(tid uintptr) syscall.Errno) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if errno := call(uintptr(tid)); errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("thread %d: %w", tid, errno)
		}
	}
	return nil
}

// sleepUntil returns at t or a few microseconds after it. The runtime's
// timers round sub-millisecond sleeps up to a millisecond when the process
// is otherwise idle, which would put the open-loop generator late on most
// arrivals; nanosleep is a plain blocking syscall with ~50 µs of kernel
// slack, and the last stretch is spun.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 3*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		case d > 80*time.Microsecond:
			ts := syscall.NsecToTimespec(int64(d - 70*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // an early EINTR return just loops
		default:
			// Spin: at most 80 µs.
		}
	}
}
