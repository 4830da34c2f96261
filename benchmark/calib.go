package main

import (
	"sync"
	"time"
)

// Machine-speed calibration. On a shared box the machine itself changes
// speed for minutes at a time (measured here: everything, this kernel
// included, ran 2× slower for two minutes, then recovered), which no
// statistic over a 20 s run can remove. So every untraced run times a fixed
// kernel of its own — the program under test has no part in it — right
// before and right after the load, and reports its time-based end-to-end
// metrics scaled to a reference machine on which the kernel takes
// calibRefMs: reported = measured × calibRefMs ÷ kernel time. A change to
// the program cannot move the kernel, so it moves the reported figure by
// exactly what it moved the measured one.
//
// The kernel is a dependent chain of loads over 512 KB with a little float
// arithmetic on each, run on as many goroutines as the load has clients. It
// fits L2 on purpose: it then measures how fast the cores are and nothing
// else, and repeats to ±1 % on a quiet box, so scaling by it costs a quiet
// run next to nothing. (Over 64 MB the same kernel swung ±4 % with the
// memory system's mood, which the workloads did not follow: scaling by it
// added more spread than it took away.)

const (
	calibWords  = 1 << 17 // uint32s: 512 KB
	calibRounds = 8
	// calibRefMs is the kernel's time on the box the benchmark was defined
	// on (2 vCPU Xeon 2.1 GHz) in its quiet state. It only fixes the scale.
	calibRefMs = 48.0
)

var calibSink uint32 // keeps the kernel's result alive

func calibKernel(arr []uint32, steps int, start uint32) uint32 {
	i := start
	acc := 0.0
	for s := 0; s < steps; s++ {
		v := arr[i&(calibWords-1)]
		acc += float64(v) * 1.0000001
		i = i*1664525 + v
	}
	return i + uint32(acc)
}

// calibrate times calibRounds rounds of the kernel, each running steps loads
// on par goroutines at once, and returns the rounds' times in ms. The
// kernel's time for a run is the second-lowest of all its rounds, before and
// after the load: like a window of the load, a round can only be slowed
// down by what else the machine is doing.
func calibrate(par, steps int) []float64 {
	arr := make([]uint32, calibWords)
	r := newRand(1, 1)
	for i := range arr {
		arr[i] = r.Uint32()
	}
	var rounds []float64
	for n := 0; n < calibRounds; n++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := calibKernel(arr, steps, uint32(n*par+g))
				mu.Lock()
				calibSink += v
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(t0))/1e6)
	}
	return rounds
}
