package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed changes under the benchmark. On a shared host the
// same work can take up to twice the CPU time for seconds or minutes,
// when other tenants load the core, its caches and the memory bus. A
// speed meter runs a fixed probe on its own thread while the benchmark
// works, and the end-to-end CPU times are divided by the probe's
// slowdown. The probe is benchmark code and never changes with the
// program under test.

// probeRefUs is the probe's thread-CPU time in µs on an idle 2-vCPU
// Xeon (Sapphire Rapids) host. It fixes the unit of the scaled times:
// CPU µs on a host where the probe takes probeRefUs.
const probeRefUs = 740

// How often the speed meter probes: often enough to take ten or more
// probes in one set-up, and at under 1% of one vCPU in a measured phase.
const (
	setupProbeEvery = 20 * time.Millisecond
	phaseProbeEvery = 100 * time.Millisecond
)

// probeBuf is the probe's 4 MB buffer, twice the L2 cache. It is mapped
// outside the Go heap, so it neither counts in heap_end_mb nor moves the
// collector's pacing, and written once so that every page has memory of
// its own.
var probeBuf = sync.OnceValues(func() ([]float64, error) {
	const n = 1 << 19
	raw, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the probe buffer: %w", err)
	}
	buf := unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	for i := range buf {
		buf[i] = float64(i % 7)
	}
	return buf, nil
})

var probeSink float64

// probe runs a dependent multiply-add chain, which the core's clock and
// sibling load set, then walks buf at a cache-line stride, which the
// shared cache and the memory bus set.
func probe(buf []float64) {
	x := 1.0
	for j := 0; j < 100_000; j++ {
		x = x*1.0000001 + 1e-9
	}
	for i := 0; i < len(buf); i += 8 {
		x += buf[i]
	}
	probeSink += x
}

// speedMeter runs the probe on a locked OS thread once at start and
// then every interval, until halt.
type speedMeter struct {
	stop   chan struct{}
	done   chan struct{}
	probes []float64     // thread-CPU µs of each probe
	self   time.Duration // CPU time the meter's thread used
}

func startMeter(every time.Duration, buf []float64) *speedMeter {
	m := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	started := make(chan struct{})
	//mfodlint:allow poolmisuse speed meter: one probe loop per measured interval, stopped by halt, which waits for it to end
	go func() {
		defer close(m.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		begin := threadCPU()
		defer func() { m.self = threadCPU() - begin }()
		t := time.NewTicker(every)
		defer t.Stop()
		close(started)
		for {
			c := threadCPU()
			probe(buf)
			m.probes = append(m.probes, micros(threadCPU()-c))
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	<-started
	return m
}

// halt stops the meter and waits for its thread to finish.
func (m *speedMeter) halt() {
	close(m.stop)
	<-m.done
}

// slowdown is the median probe time over probeRefUs: 1 on the reference
// host, 2 when the probe took twice as long.
func (m *speedMeter) slowdown() float64 {
	return median(m.probes) / probeRefUs
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time, user and system, that every thread of the
// process has used. Time the hypervisor holds a vCPU back is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// meteredCPU runs f with a speed meter probing every interval and
// returns the process CPU time f used, less the meter's own, and the
// probe's slowdown over the same time.
func meteredCPU(every time.Duration, f func()) (cpu time.Duration, slowdown float64, err error) {
	buf, err := probeBuf()
	if err != nil {
		return 0, 0, err
	}
	c := processCPU()
	m := startMeter(every, buf)
	f()
	m.halt()
	return processCPU() - c - m.self, m.slowdown(), nil
}
