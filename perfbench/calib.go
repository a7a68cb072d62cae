package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

// Host-speed normalisation. The shared VM this benchmark was written on
// runs the same pass up to a fifth faster or slower for a minute or more
// at a time, so the run-to-run spread of raw wall times is set by the
// host, not by the program or the seeds. Every run therefore also times a
// fixed kernel that uses none of the repository's code, on every CPU,
// right after each pass, and scales its end-to-end times by
// calibNominal over the kernel's median time over the passes: the times read as seconds
// on a host that runs the kernel in calibNominal. The raw kernel time is
// reported per layer as host.calib_ms.

// calibNominal is the kernel's time on the 2-vCPU VM the baseline in
// README.md was taken on, in a quiet period.
const calibNominal = 10 * time.Millisecond

// calibReps is how many kernel timings follow each pass.
const calibReps = 4

// calibHeap is the size of the kernel's binary heap, about the event
// queue depth of a simulated cell.
const calibHeap = 64

var calibSink [sha256.Size]byte

// calibBuf is hashed by the kernel; it is filled once.
var calibBuf = func() []byte {
	b := make([]byte, 1<<17)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// calibKernel pushes and pops pseudo-random keys through a small binary
// heap (the scheduler's access pattern) and hashes a 128 KiB buffer. It
// allocates nothing, so the collector does not steer its time.
func calibKernel() byte {
	var h [calibHeap + 1]uint64
	n := 0
	x := uint64(88172645463325252)
	for i := 0; i < 300000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if n == calibHeap {
			// Pop the minimum: move the last key to the root, sift down.
			n--
			h[0] = h[n]
			for j := 0; ; {
				c := 2*j + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
		// Push: append, sift up.
		h[n] = x & 0xffffff
		for j := n; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		n++
	}
	sum := sha256.Sum256(calibBuf)
	return sum[0] ^ byte(h[0])
}

// calibrate times one kernel run on each CPU at once.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	out := make([]byte, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = calibKernel()
		}(i)
	}
	wg.Wait()
	d := time.Since(start)
	calibSink[0] ^= out[0]
	return d
}
