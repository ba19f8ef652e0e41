package main

import (
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdrhist"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The traced run times calls into each layer's public entry points
// from the benchmark's own wrappers around the seams the program
// already accepts: the wire.Handler given to wire.NewServer, each
// cluster.Backend in a Router's config, and each http.Handler. Every
// client operation carries a fresh trace id (the program propagates
// it through wire frames, HTTP headers and contexts), so the spans of
// one operation meet under one id and self times are per operation.

// layer names a wrapped seam.
type layer int

const (
	lServeHandler   layer = iota // wire.Handler over a serve.Dispatcher
	lClusterHandler              // wire.Handler or http.Handler over a cluster.Router
	lBackend                     // cluster.Backend, as the Router calls it
	lBackendHTTP                 // a backend's own http.Handler
	nLayers
)

type opSpans struct{ ns [nLayers]atomic.Int64 }

// tracer collects per-operation spans while an operation is open and
// turns them into per-layer samples when the client sees the reply.
type tracer struct {
	next atomic.Uint64
	open sync.Map // trace id → *opSpans

	mu      sync.Mutex
	samples map[string]*hdrhist.Hist // derived sample name → durations
}

func newTracer() *tracer { return &tracer{samples: make(map[string]*hdrhist.Hist)} }

// begin tags ctx with a fresh trace id for one client operation.
func (t *tracer) begin(ctx context.Context) (context.Context, uint64) {
	id := t.next.Add(1)
	t.open.Store(id, &opSpans{})
	return obs.WithTrace(ctx, id), id
}

// add accumulates d into layer l of operation id (a failed-over
// operation crosses a layer more than once).
func (t *tracer) add(id uint64, l layer, d time.Duration) {
	if v, ok := t.open.Load(id); ok {
		v.(*opSpans).ns[l].Add(int64(d))
	}
}

// end closes operation id with its client-observed time. When keep is
// false the spans are dropped (warm-up).
func (t *tracer) end(id uint64, client time.Duration, keep bool) {
	v, ok := t.open.LoadAndDelete(id)
	if !ok || !keep {
		return
	}
	s := v.(*opSpans)
	var ns [nLayers]int64
	for i := range ns {
		ns[i] = s.ns[i].Load()
	}
	c := int64(client)
	t.mu.Lock()
	defer t.mu.Unlock()
	put := func(name string, v int64) {
		h := t.samples[name]
		if h == nil {
			h = hdrhist.New()
			t.samples[name] = h
		}
		h.Record(v)
	}
	if h := ns[lServeHandler]; h > 0 {
		put("serve.handler", h)
		put("transport", c-h)
	}
	if h := ns[lClusterHandler]; h > 0 {
		put("cluster.handler", h)
		put("transport", c-h)
		if b := ns[lBackend]; b > 0 {
			put("cluster.route_self", h-b)
		}
	}
	if b := ns[lBackend]; b > 0 {
		put("cluster.backend", b)
		if bh := ns[lBackendHTTP]; bh > 0 {
			put("cluster.backend_transport", b-bh)
		}
	}
}

// quantileUs returns the q-quantile of a derived sample in µs.
func (t *tracer) quantileUs(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.samples[name]; h != nil {
		return quantileUs(h, q)
	}
	return math.NaN()
}

// tracedWire wraps a wire.Handler, timing the operations it serves.
type tracedWire struct {
	wire.Handler
	t *tracer
	l layer
}

func (w tracedWire) Place(ctx context.Context, count int) ([]int, int64, error) {
	t0 := time.Now()
	bins, samples, err := w.Handler.Place(ctx, count)
	w.t.add(obs.TraceFrom(ctx), w.l, time.Since(t0))
	return bins, samples, err
}

func (w tracedWire) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	t0 := time.Now()
	bins, samples, err := w.Handler.PlaceKeyed(ctx, key)
	w.t.add(obs.TraceFrom(ctx), w.l, time.Since(t0))
	return bins, samples, err
}

func (w tracedWire) Remove(ctx context.Context, bin int, key string) error {
	t0 := time.Now()
	err := w.Handler.Remove(ctx, bin, key)
	w.t.add(obs.TraceFrom(ctx), w.l, time.Since(t0))
	return err
}

// backend is what the Router sees of each node: both stacks' backends
// (cluster.InprocBackend, cluster.HTTPBackend) take keyed traffic.
type backend interface {
	cluster.Backend
	cluster.KeyedBackend
}

// tracedBackend wraps a Router backend, timing each forwarded call.
type tracedBackend struct {
	backend
	t *tracer
}

func (b tracedBackend) timed(ctx context.Context, t0 time.Time) {
	b.t.add(obs.TraceFrom(ctx), lBackend, time.Since(t0))
}

func (b tracedBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	defer b.timed(ctx, time.Now())
	return b.backend.Place(ctx, count)
}

func (b tracedBackend) Remove(ctx context.Context, bin int) error {
	defer b.timed(ctx, time.Now())
	return b.backend.Remove(ctx, bin)
}

func (b tracedBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	defer b.timed(ctx, time.Now())
	return b.backend.PlaceKey(ctx, key)
}

func (b tracedBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	defer b.timed(ctx, time.Now())
	return b.backend.RemoveKey(ctx, bin, key)
}

// tracedHTTP wraps an http.Handler, timing requests that carry a
// trace id.
func tracedHTTP(h http.Handler, t *tracer, l layer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.ParseTrace(r.Header.Get(obs.Header))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id != 0 {
			t.add(id, l, time.Since(t0))
		}
	})
}
