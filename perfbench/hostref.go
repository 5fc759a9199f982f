package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host reference kernel measures how fast the shared host runs right
// now. It uses no ownsim code, so a change to the simulator never moves
// it. Each repetition times the kernel before its set-up and after its
// run, and scales its wall times by refNominalS over the mean of the two
// readings: they read as seconds on a host where the kernel takes
// refNominalS. On a shared 2-vCPU VM the raw run time of one workload
// drifted by up to 1.9x within ten minutes while the simulated work stayed
// the same. Over sets of ten runs per workload the scaling narrowed the
// spread of run_s from 0.07-0.30 to 0.05-0.13 (perfbench/README.md,
// "Host noise"). The raw times stay in the detail line.

// refNominalS is a round figure near the kernel's median time on that VM
// (0.078 s over 450 readings, 90% of them within 0.067-0.088 s).
const refNominalS = 0.08

const (
	// refChainSteps dependent xorshift steps stand for the ALU-bound
	// part of the simulator.
	refChainSteps = 1 << 23
	// refWalkWords is the memory part: dependent loads, data-dependent
	// branches and stores at random over 32 MiB, which slow down, like
	// the simulator, when other tenants load the cache and memory.
	refWalkWords = 1 << 22
	refWalkSteps = 1 << 18
	// refWalkers independent walks run interleaved, as the simulator's
	// components do.
	refWalkers = 4
)

// refSink keeps the compiler from dropping the kernel's work.
var refSink atomic.Uint64

// hostRef runs the reference kernel on workers goroutines at once (one
// per P the workloads use) and returns its mean wall time in seconds.
// Its 32 MiB per worker are released with the next runtime.GC.
func hostRef(workers int) float64 {
	secs := make([]float64, workers)
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			secs[i] = refKernel()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, s := range secs {
		sum += s
	}
	return sum / float64(workers)
}

func refKernel() float64 {
	words := make([]uint64, refWalkWords)
	// Fault the pages in before timing.
	for i := 0; i < len(words); i += 512 {
		words[i] = 1
	}
	mask := uint64(len(words) - 1)
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refChainSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var at [refWalkers]uint64
	for k := range at {
		at[k] = uint64(k) * (refWalkWords / refWalkers)
	}
	for i := 0; i < refWalkSteps; i++ {
		for k := range at {
			v := words[at[k]]
			if v&1 == 0 {
				words[at[k]] = v + 3
			} else {
				words[at[k]] = v + 1
			}
			// A full-period LCG over the array; v>>62 is always 0 but
			// makes the next address wait for this load.
			at[k] = (at[k]*6364136223846793005 + 1442695040888963407 + v>>62) & mask
		}
	}
	s := time.Since(t).Seconds()
	refSink.Add(x + at[0])
	return s
}
