package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdrhist"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive"
// method), so spreads printed here match a Python reading of the same
// numbers.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantileUs reads the q-quantile of h in µs (NaN when h is empty),
// interpolated linearly within its hdrhist bucket, so that a figure
// moves with the samples rather than in steps of a bucket's width.
// hdrhist records without allocating, so the benchmark's own latency
// recording adds nothing to the measured window's allocations.
func quantileUs(h *hdrhist.Hist, q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return math.NaN()
	}
	rank := max(1, math.Ceil(q*float64(s.Count)))
	var seen float64
	for _, b := range s.Buckets() {
		c := float64(b.Count)
		if seen+c >= rank {
			lo, width := float64(b.Lo), float64(b.Hi-b.Lo+1)
			return (lo + width*(rank-seen-0.5)/c) / 1e3
		}
		seen += c
	}
	return float64(s.Max) / 1e3
}

// heapCounters reads the process-wide cumulative allocation counters.
// ReadMemStats stops the world to flush every P's allocation cache, so
// the counts are exact (the runtime/metrics counters lag by whole
// spans); it is called only at the edges of measured intervals.
func heapCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// heapWatch samples the live heap on a fixed cadence and keeps the
// peak. Start it, then Stop it; Stop returns once the sampler exited.
type heapWatch struct {
	peak   atomic.Uint64
	sample []metrics.Sample // reused: sampling allocates nothing
	stop   chan struct{}
	wg     sync.WaitGroup
}

// live reads the bytes of live and not-yet-swept heap objects.
func (h *heapWatch) live() uint64 {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		stop:   make(chan struct{}),
	}
	h.peak.Store(h.live())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := h.live(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	if v := h.live(); v > h.peak.Load() {
		h.peak.Store(v)
	}
	return float64(h.peak.Load()) / (1 << 20)
}

// allocMeter measures process-wide heap allocations over an interval.
type allocMeter struct{ objects, bytes uint64 }

func startAllocMeter() allocMeter {
	o, b := heapCounters()
	return allocMeter{o, b}
}

// perOp returns allocations and bytes per operation since start.
func (a allocMeter) perOp(ops int64) (allocs, bytes float64) {
	o, b := heapCounters()
	if ops <= 0 {
		return math.NaN(), math.NaN()
	}
	return float64(o-a.objects) / float64(ops), float64(b-a.bytes) / float64(ops)
}
