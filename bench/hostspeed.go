package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The host this benchmark was written on is shared: while
// other tenants load it, each CPU runs up to half again slower, for a
// fraction of a second to minutes at a time, and process CPU time slows
// with it. Raw wall times of runs made minutes apart then differ by 20-30%,
// far more than any change worth catching. So every host time the
// benchmark reports is scaled to a reference speed: a fixed kernel, which
// lives only in this file and calls nothing in the program, is timed
// between the run's timed steps, and every time is multiplied by the
// run's median speed (refSeconds over the kernel's time). No change to the
// program moves the kernel, so a program that got slower still reads
// slower; a host that got slower does not.

const (
	// refSeconds is the kernel's time on the machine described in
	// README.md while nothing else loads it, so scaled times read as
	// seconds on that machine.
	refSeconds = 0.0041
	// refReps kernel runs make one probe; their median is its time.
	refReps = 5
	// The kernel: refSteps events through a calendar of refPending
	// events over a state table of refState words.
	refSteps   = 60_000
	refPending = 4096
	refState   = 1 << 16
)

// refKernel is fixed work shaped like a simulator's hot loop: it pops the
// earliest event of a binary-heap calendar, updates the state word the
// event names, and schedules the event's successor in its place. It
// allocates nothing.
func refKernel(cal []uint64, state []uint32) uint32 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range cal {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cal[i] = x>>40<<16 | uint64(i)
	}
	// Heapify, then replace the minimum refSteps times.
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(cal) {
				return
			}
			if r := l + 1; r < len(cal) && cal[r] < cal[l] {
				l = r
			}
			if cal[i] <= cal[l] {
				return
			}
			cal[i], cal[l] = cal[l], cal[i]
			i = l
		}
	}
	for i := len(cal)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var acc uint32
	for s := 0; s < refSteps; s++ {
		ev := cal[0]
		now, id := ev>>16, uint32(ev)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := (uint32(x) ^ id*2654435761) & (refState - 1)
		state[slot] += id
		acc += state[slot>>1]
		cal[0] = (now+1+x>>52)<<16 | uint64(id)
		down(0)
	}
	return acc
}

// probeSpeed returns the host's speed: refSeconds over the median kernel
// time (below 1 on a slower host). The kernel runs refReps times on every
// CPU the process uses at once, one thread pinned to each, because the
// program runs on all of them (the garbage collector and the control
// plane's goroutines alongside the simulation) and each CPU slows on its
// own.
func probeSpeed() float64 {
	runtime.GC()
	n := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	ts := make([]float64, n*refReps)
	var wg sync.WaitGroup
	for cpu := 0; cpu < n; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			// The goroutine ends still locked, so the runtime ends its
			// pinned thread instead of reusing it.
			runtime.LockOSThread()
			pinToCPU(cpu)
			cal := make([]uint64, refPending)
			state := make([]uint32, refState)
			var acc uint32
			for i := 0; i < refReps; i++ {
				t := time.Now()
				acc += refKernel(cal, state)
				ts[cpu*refReps+i] = time.Since(t).Seconds()
			}
			sinkRef.Add(acc)
		}(cpu)
	}
	wg.Wait()
	return refSeconds / median(ts)
}

// pinToCPU restricts the calling thread to one CPU. Where that fails the
// thread stays unpinned; the probe then measures whichever CPU it gets.
func pinToCPU(cpu int) {
	var mask [1024 / 64]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// sinkRef keeps the kernel's result live so the compiler keeps its work.
var sinkRef atomic.Uint32

// hostClock scales host times to the reference speed. Samples are added
// as measured and probe measures the host's speed; scaled multiplies every
// time by the median speed of all the run's probes and divides every rate
// by it. The factor is one per run, not one per op: a probe sees the host
// for a moment, and the speed moves within a second, but the median of a
// run's probes tracks how loaded the host was over the run.
type hostClock struct {
	speeds []float64 // every probe's speed
	raw    extras    // samples as measured
}

func (h *hostClock) probe() { h.speeds = append(h.speeds, probeSpeed()) }

func (h *hostClock) scaled() extras {
	f := median(h.speeds)
	out := extras{}
	for name, vs := range h.raw {
		for _, v := range vs {
			if unitOf(name) == "1/s" {
				v /= f
			} else {
				v *= f
			}
			out.add(name, v)
		}
	}
	return out
}
