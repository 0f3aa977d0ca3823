package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed drifts: in
// one measured case every workload, and this kernel with it, ran 1.75x
// slower for tens of minutes, while the ratio between the simulator's
// speed and the kernel's stayed within 1%. So every host time the
// benchmark reports is scaled to a fixed reference speed of the kernel
// below, using the median of its speeds measured before and after
// set-up and after each repetition. The kernel uses none of the
// simulator's code, so a change to the simulator moves the scaled
// figures by the same factor as the unscaled ones.

// refSpeed is the reference speed, in kernel steps per host second:
// about this kernel's speed on a lightly loaded 2-processor Xeon VM at
// 2.1 GHz.
const refSpeed = 40e6

const (
	refSteps = 8_000_000
	refBytes = 4 << 20 // twice the host's per-core L2, like the L2 models
)

var refSink uint64

// hostSpeed runs the reference kernel once and returns its speed in
// steps per second. Its table lives outside the Go heap and is unmapped
// afterwards, so it touches neither the garbage collector's pacing nor
// the resident set the benchmark reports.
func hostSpeed() (float64, error) {
	b, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("mapping the reference kernel's table: %w", err)
	}
	defer syscall.Munmap(b)
	tab := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refBytes/4)
	for i := range tab {
		tab[i] = uint32(i) * 2654435761
	}
	t := time.Now()
	refSink += refKernel(tab, refSteps)
	return refSteps / time.Since(t).Seconds(), nil
}

// refKernel is a dependent pseudo-random walk over tab with a
// data-dependent branch: integer work, mispredicted branches and
// cache misses, the mix the simulator's own loops have.
func refKernel(tab []uint32, steps int) uint64 {
	x := uint64(88172645463325252)
	idx := uint32(0)
	mask := uint32(len(tab) - 1)
	var acc uint64
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := tab[idx]
		if v&1 == 0 {
			acc += uint64(v) ^ x
		} else {
			acc ^= uint64(v) * 31
		}
		tab[idx] = v + uint32(x)
		idx = (v ^ uint32(x>>20)) & mask
	}
	return acc
}
