package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdrhist"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// opClient is one transport's view of the system under test. An empty
// key means an unkeyed operation.
type opClient interface {
	place(ctx context.Context, key string) (bin int, err error)
	remove(ctx context.Context, bin int, key string) error
}

type wireClient struct{ c *wire.Client }

func (w wireClient) place(ctx context.Context, key string) (int, error) {
	var bins []int
	var err error
	if key == "" {
		bins, _, err = w.c.Place(ctx, 1)
	} else {
		bins, _, err = w.c.PlaceKeyed(ctx, key)
	}
	if err != nil {
		return 0, err
	}
	if len(bins) != 1 {
		return 0, fmt.Errorf("place answered %d bins for one ball", len(bins))
	}
	return bins[0], nil
}

func (w wireClient) remove(ctx context.Context, bin int, key string) error {
	return w.c.Remove(ctx, bin, key)
}

// httpClient drives the /v1/place and /v1/remove endpoints of base.
type httpClient struct {
	c    *http.Client
	base string
}

func (h httpClient) post(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, nil)
	if err != nil {
		return err
	}
	if id := obs.TraceFrom(ctx); id != 0 {
		req.Header.Set(obs.Header, obs.FormatTrace(id))
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (h httpClient) place(ctx context.Context, key string) (int, error) {
	path := "/v1/place"
	if key != "" {
		path += "?key=" + key
	}
	var pr serve.PlaceResponse
	if err := h.post(ctx, path, &pr); err != nil {
		return 0, err
	}
	return pr.Bin, nil
}

func (h httpClient) remove(ctx context.Context, bin int, key string) error {
	path := "/v1/remove?bin=" + strconv.Itoa(bin)
	if key != "" {
		path += "&key=" + key
	}
	var rr serve.RemoveResponse
	if err := h.post(ctx, path, &rr); err != nil {
		return err
	}
	if !rr.Removed || rr.Bin != bin {
		return fmt.Errorf("remove of bin %d answered %+v", bin, rr)
	}
	return nil
}

// ball is one live ball the benchmark placed and may remove.
type ball struct {
	bin int
	key string
}

// driveSpec is one closed-loop traffic pass: callers each alternate a
// placement and the removal of a uniformly chosen ball of their own,
// so the live ball count holds steady at the prefill.
type driveSpec struct {
	callers int
	client  opClient
	// newKeys builds caller i's key stream from its random source;
	// nil runs unkeyed.
	newKeys func(r *rand.Rand, i int) func() string
	owned   [][]ball // prefilled balls, one list per caller
	seed    uint64
	warm    time.Duration
	// measure is split into `slices` equal parts; ops_per_s is the
	// median slice rate.
	measure time.Duration
	slices  int
	nBins   int
	// binsPerBackend > 0 maps global bins to backends, for the
	// affinity check and the per-backend routed counts.
	binsPerBackend int
	backends       int
	led            *ledger
	aff            *affinity
	// excess reads max load minus ⌈live balls / bins⌉ from the program.
	excess func() float64
	// choices reads the cumulative random choices and placements the
	// program counted (samples_per_ball is their ratio over the
	// measured window).
	choices func() (samples, placed int64)
	// tick, when set, runs at every excess sample (per-pass counters
	// that need periodic reads).
	tick func()
	tr   *tracer
}

type driveResult struct {
	attempted, failed int64
	measuredOps       int64
	errs              []error
	sliceRates        []float64
	lat               *hdrhist.Hist
	excess            float64
	samplesPerBall    float64
	allocsPerOp       float64
	bytesPerOp        float64
	heapPeakMB        float64
	// routedPlaced/routedRemoved count acknowledged operations per
	// backend (binsPerBackend > 0).
	routedPlaced, routedRemoved []int64
}

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// errList keeps the first few check failures of a pass.
type errList struct {
	mu   sync.Mutex
	errs []error
}

func (e *errList) add(err error) {
	e.mu.Lock()
	if len(e.errs) < 8 {
		e.errs = append(e.errs, err)
	}
	e.mu.Unlock()
}

func drive(spec driveSpec) driveResult {
	var (
		phase             atomic.Int32
		attempted, failed atomic.Int64
		measured          atomic.Int64
		errs              errList
		wg                sync.WaitGroup
		lat               = hdrhist.New()
	)
	routedP := make([]atomic.Int64, spec.backends)
	routedR := make([]atomic.Int64, spec.backends)
	for i := 0; i < spec.callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(spec.seed, uint64(i)))
			var live []ball
			if i < len(spec.owned) {
				live = spec.owned[i]
			}
			var nextKey func() string
			if spec.newKeys != nil {
				nextKey = spec.newKeys(r, i)
			}
			for step := 0; phase.Load() != phaseStop; step++ {
				ctx, id := context.Background(), uint64(0)
				if spec.tr != nil {
					ctx, id = spec.tr.begin(ctx)
				}
				place := len(live) == 0 || step%2 == 0
				var b ball
				var err error
				t0 := time.Now()
				if place {
					if nextKey != nil {
						b.key = nextKey()
					}
					b.bin, err = spec.client.place(ctx, b.key)
				} else {
					j := r.IntN(len(live))
					b = live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					err = spec.client.remove(ctx, b.bin, b.key)
				}
				d := time.Since(t0)
				keep := phase.Load() == phaseMeasure
				if spec.tr != nil {
					spec.tr.end(id, d, keep)
				}
				attempted.Add(1)
				if keep {
					lat.Record(int64(d))
					measured.Add(1)
				}
				if err != nil {
					failed.Add(1)
					if !place {
						errs.add(fmt.Errorf("remove of ledger-live ball in bin %d failed: %w", b.bin, err))
					} else {
						errs.add(fmt.Errorf("place failed: %w", err))
					}
					continue
				}
				if place {
					if cerr := checkBin(b.bin, spec.nBins); cerr != nil {
						errs.add(cerr)
						continue
					}
					spec.led.add(b.bin, 1)
					live = append(live, b)
					if spec.binsPerBackend > 0 {
						be := b.bin / spec.binsPerBackend
						routedP[be].Add(1)
						if spec.aff != nil {
							if cerr := spec.aff.placed(b.key, be); cerr != nil {
								errs.add(cerr)
							}
						}
					}
				} else {
					spec.led.add(b.bin, -1)
					if spec.binsPerBackend > 0 {
						routedR[b.bin/spec.binsPerBackend].Add(1)
						if spec.aff != nil {
							spec.aff.removed(b.key)
						}
					}
				}
			}
		}(i)
	}

	time.Sleep(spec.warm)
	res := driveResult{sliceRates: make([]float64, 0, spec.slices)}
	am := startAllocMeter()
	hw := startHeapWatch(20 * time.Millisecond)
	s0, p0 := spec.choices()
	phase.Store(phaseMeasure)
	start := time.Now()
	const samplesPerSlice = 5
	tick := time.NewTicker(spec.measure / time.Duration(spec.slices*samplesPerSlice))
	var excessSum float64
	var excessN int
	prevOps, prevT := int64(0), start
	for k := 1; k <= spec.slices*samplesPerSlice; k++ {
		<-tick.C
		excessSum += spec.excess()
		excessN++
		if spec.tick != nil {
			spec.tick()
		}
		if k%samplesPerSlice == 0 {
			now, ops := time.Now(), measured.Load()
			res.sliceRates = append(res.sliceRates, float64(ops-prevOps)/now.Sub(prevT).Seconds())
			prevOps, prevT = ops, now
		}
	}
	tick.Stop()
	phase.Store(phaseStop)
	res.measuredOps = measured.Load()
	res.allocsPerOp, res.bytesPerOp = am.perOp(res.measuredOps)
	res.heapPeakMB = hw.Stop()
	s1, p1 := spec.choices()
	wg.Wait()

	res.attempted, res.failed = attempted.Load(), failed.Load()
	res.errs = errs.errs
	res.lat = lat
	res.excess = excessSum / float64(excessN)
	if p1 > p0 {
		res.samplesPerBall = float64(s1-s0) / float64(p1-p0)
	}
	for i := range routedP {
		res.routedPlaced = append(res.routedPlaced, routedP[i].Load())
		res.routedRemoved = append(res.routedRemoved, routedR[i].Load())
	}
	return res
}

// e2e turns a traffic pass into the end-to-end metrics.
func (r driveResult) e2e(setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setup,
		"ops_per_s":        median(r.sliceRates),
		"latency_p50_us":   quantileUs(r.lat, 0.50),
		"latency_p99_us":   quantileUs(r.lat, 0.99),
		"allocs_per_op":    r.allocsPerOp,
		"bytes_per_op":     r.bytesPerOp,
		"heap_peak_mb":     r.heapPeakMB,
		"samples_per_ball": r.samplesPerBall,
		"max_load_excess":  r.excess,
	}
}
