package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	ballsbins "repro"
	"repro/internal/hdrhist"
)

// The sim workload: fresh Allocators of the paper's Adaptive protocol
// on the fast engine, each placing m = 100·n balls in batches through
// the fused histogram loop, one after another for the whole run.
const (
	simN     = 1 << 20
	simBalls = 100 * simN
	simBatch = 1 << 16 // balls per PlaceBatch call: one timed operation
)

func newSimAllocator(seed, i uint64) *ballsbins.Allocator {
	return ballsbins.New(ballsbins.Adaptive(), simN,
		ballsbins.WithSeed(mix(seed, i)), ballsbins.WithEngine(ballsbins.EngineFast))
}

// finishSim checks an Allocator's final state from its raw loads and
// returns its max load minus ⌈balls/n⌉.
func finishSim(a *ballsbins.Allocator) (float64, error) {
	n := int64(a.N())
	loads := a.Loads()
	rep := simReport{
		MaxLoad: a.MaxLoad(), MinLoad: a.MinLoad(), Gap: a.Gap(),
		SumSquares: a.SumSquares(), Balls: a.Balls(), Placed: a.Placed(), Samples: a.Samples(),
	}
	excess := float64(slices.Max(loads)) - float64(ceilDiv(a.Placed(), n))
	return excess, checkSim(loads, rep, a.Placed())
}

func runSim(env passEnv) (passOut, error) {
	var (
		phase    atomic.Int32
		measured atomic.Int64
		out      passOut
		lat      = hdrhist.New()
		excess   []float64
		// setups times every Allocator of the run from its construction
		// through its first n balls: the set-up samples are spread over
		// the whole run, as the measured work is, rather than taken in
		// its first half second.
		setups  []float64
		samples int64
		placed  int64
		// lifeObjects, lifeBytes and lifeBalls sum the Allocators whose
		// whole life, construction to last batch, fell in the measured
		// window: allocations per ball over whole lives do not depend on
		// where the window cuts the sequence of Allocators.
		lifeObjects, lifeBytes, lifeBalls uint64
		done                              = make(chan struct{})
	)
	go func() {
		defer close(done)
		var i uint64
		o0, b0 := heapCounters()
		bornMeasured := false
		born := time.Now()
		a := newSimAllocator(env.seed, i)
		finish := func() {
			x, err := finishSim(a)
			excess = append(excess, x)
			if err != nil {
				out.errs = append(out.errs, err)
			}
		}
		for phase.Load() != phaseStop {
			t0 := time.Now()
			s := a.PlaceBatch(simBatch)
			d := time.Since(t0)
			out.res.attempted += simBatch
			if a.Placed() == simN {
				setups = append(setups, time.Since(born).Seconds())
			}
			if phase.Load() == phaseMeasure {
				lat.Record(int64(d))
				samples += s
				placed += simBatch
				measured.Add(simBatch)
			}
			if a.Placed() >= simBalls {
				if o1, b1 := heapCounters(); bornMeasured && phase.Load() == phaseMeasure {
					lifeObjects, lifeBytes, lifeBalls = lifeObjects+o1-o0, lifeBytes+b1-b0, lifeBalls+simBalls
				}
				finish()
				i++
				a = nil
				// Collect the finished Allocator before the next one, so
				// the heap holds one load state at a time.
				runtime.GC()
				o0, b0 = heapCounters()
				bornMeasured = phase.Load() == phaseMeasure
				born = time.Now()
				a = newSimAllocator(env.seed, i)
			}
		}
		if len(excess) == 0 {
			finish() // a run too short to finish one Allocator
		} else if _, err := finishSim(a); err != nil {
			out.errs = append(out.errs, err)
		}
	}()

	time.Sleep(env.warm)
	am := startAllocMeter()
	hw := startHeapWatch(20 * time.Millisecond)
	phase.Store(phaseMeasure)
	tick := time.NewTicker(env.measure / time.Duration(env.slices))
	prevOps, prevT := int64(0), time.Now()
	rates := make([]float64, 0, env.slices)
	for k := 0; k < env.slices; k++ {
		<-tick.C
		now, ops := time.Now(), measured.Load()
		rates = append(rates, float64(ops-prevOps)/now.Sub(prevT).Seconds())
		prevOps, prevT = ops, now
	}
	tick.Stop()
	phase.Store(phaseStop)
	ops := measured.Load()
	heap := hw.Stop()
	allocs, bytes := am.perOp(ops) // a run too short for a whole life
	<-done
	if lifeBalls > 0 {
		allocs, bytes = float64(lifeObjects)/float64(lifeBalls), float64(lifeBytes)/float64(lifeBalls)
	}

	out.res.lat, out.res.sliceRates, out.res.measuredOps = lat, rates, ops
	out.res.allocsPerOp, out.res.bytesPerOp, out.res.heapPeakMB = allocs, bytes, heap
	out.res.samplesPerBall = math.NaN()
	if placed > 0 {
		out.res.samplesPerBall = float64(samples) / float64(placed)
	}
	var sum float64
	for _, x := range excess {
		sum += x
	}
	out.res.excess = sum / float64(len(excess))
	fmt.Printf("# set-up times (s) %.4f\n", setups)
	out.setup = median(setups)
	return out, nil
}
