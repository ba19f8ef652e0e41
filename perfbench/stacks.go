package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Workload make-up. The serving workloads keep fillBalls live
// throughout (the churn regime: every placement is matched by a
// departure), so max load and its bound stay well defined.
const (
	clientConns = 2 // benchmark client connections, on every wire and HTTP workload
	shards      = 8 // dispatcher shards per serve node (bbserved's default)

	swN       = 100000 // serve-wire bins
	swCallers = 64     // outstanding callers pipelined on clientConns

	kdBackends = 4
	kdN        = 4096 // bins per backend
	kdCallers  = 64
	// Keyed traffic is the repository's keyed-churn load scenario
	// (internal/load KeyedChurn): keys drawn Zipf(s = 1.2) over a space
	// of 1024, the space rotating to fresh keys four times over the run.
	// At this workload's ≈20000 placements per second, four rotations
	// in a 20 s run are one every 100000 placements.
	kdKeySpace    = 1024
	kdZipfS       = 1.2
	kdRotateEvery = 100000
	kdPrepEpochs  = 64 // key spaces the preparatory phase assigns

	phBackends = 4
	phN        = 25000 // bins per backend
	phCallers  = clientConns

	staleness   = 500 * time.Millisecond // bbproxy's default load-view refresh
	healthEvery = time.Second            // bbproxy's default health probe
)

// passEnv is what every pass shares.
type passEnv struct {
	seed    uint64
	dataDir string
	logger  *slog.Logger
	warm    time.Duration
	measure time.Duration
	slices  int
	setups  int // identical set-ups timed; the last one is kept
	tr      *tracer
}

// passOut is one workload pass: its traffic, set-up time, check
// failures and traced per-layer values.
type passOut struct {
	res    driveResult
	setup  float64
	errs   []error
	layers map[string]float64
}

// fillBalls is the live ball count kept on bins bins: 3.1 per bin, a
// fraction past an integer, so neither the in-flight operations (at most
// one per caller) nor the keyed workload's skew of a few percent between
// shards moves ⌈live/bins⌉ of the whole or of one shard.
func fillBalls(bins int) int { return bins * 31 / 10 }

// timedSetup builds a stack once untimed, so the heap has grown to hold
// one, then n times timed from a collected heap; it keeps the last and
// returns the median build time. Each timed build thus reuses memory the
// process already holds, and measures the work of the build rather than
// the host's page-fault cost, which varies with other tenants' load.
func timedSetup[T any](n int, open func() (T, error), discard func(T)) (T, float64, error) {
	var times []float64
	var s T
	for i := 0; i <= n; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = open()
		if err != nil {
			return s, 0, err
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
		if i < n {
			discard(s)
		}
	}
	fmt.Printf("# set-up times (s) %.4f\n", times)
	return s, median(times), nil
}

func mix(seed, v uint64) uint64 {
	z := seed + (v+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// keyName is the key of popularity rank r under seed.
func keyName(seed, rank uint64) string { return strconv.FormatUint(mix(seed, rank), 36) }

// serveNode opens one bbserved-equivalent dispatcher with the daemon's
// defaults (adaptive, fast engine, obs recorder and watchdog on).
func serveNode(n int, seed uint64) *serve.Dispatcher {
	return serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: seed})
}

// prefill places fillBalls(d.N()) balls on d in bulk and appends them
// to live as global bins (local bin + base).
func prefill(d *serve.Dispatcher, base int, live []ball) ([]ball, error) {
	for left := fillBalls(d.N()); left > 0; {
		c := min(left, serve.MaxBulkPlace)
		bins, _, err := d.PlaceMany(context.Background(), c)
		if err != nil {
			return live, err
		}
		for _, b := range bins {
			live = append(live, ball{bin: base + b})
		}
		left -= c
	}
	return live, nil
}

// deal records balls in the ledger and deals them round-robin to the
// callers' lists.
func deal(balls []ball, led *ledger, owned [][]ball) {
	for i, b := range balls {
		led.add(b.bin, 1)
		owned[i%len(owned)] = append(owned[i%len(owned)], b)
	}
}

// serveListener serves wire traffic for h on a loopback port.
func serveListener(h wire.Handler, logger *slog.Logger) (*wire.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	ws := wire.NewServer(h, wire.ServerOptions{Logger: logger})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.Serve(ln)
	}()
	return ws, ln.Addr().String(), done, nil
}

// httpListener serves h on a loopback port.
func httpListener(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

// checkServeNode checks one serve node against the ledger slice that
// covers its bins: loads bin for bin, books, the per-shard adaptive
// bound the serve watchdog checks, and the watchdog's verdict.
func checkServeNode(name string, d *serve.Dispatcher, led []int64) []error {
	var errs []error
	sa := d.Allocator()
	loads := sa.Loads()
	if err := checkLedger(led, loads); err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", name, err))
	}
	var live int64
	for _, v := range led {
		live += v
	}
	if err := checkEqual(name+" live balls", live, d.Stats().Balls); err != nil {
		errs = append(errs, err)
	}
	for s := 0; s < sa.Shards(); s++ {
		lo, size := sa.ShardBase(s), sa.ShardSize(s)
		mx := slices.Max(loads[lo : lo+size])
		bound := ceilDiv(d.ShardStats(s).Placed, int64(size)) + 1
		if err := checkAtMost(fmt.Sprintf("%s shard %d max load", name, s), int64(mx), bound); err != nil {
			errs = append(errs, err)
		}
	}
	if v := d.Watch().ViolationsTotal(); v != 0 {
		errs = append(errs, fmt.Errorf("%s: watchdog reported %d violations: %v", name, v, d.Watch().ViolationCounts()))
	}
	return errs
}

// clusterExcess reads max load minus ⌈live/bins⌉ across serve nodes.
func clusterExcess(ds []*serve.Dispatcher) float64 {
	var mx int
	var balls, bins int64
	for _, d := range ds {
		v := d.Stats()
		mx = max(mx, v.MaxLoad)
		balls += v.Balls
		bins += int64(d.N())
	}
	return float64(mx) - float64(ceilDiv(balls, bins))
}

// checkRouterBooks re-polls every backend and checks the Router's
// per-backend books against the benchmark's ledger.
func checkRouterBooks(rt *cluster.Router, led []int64, per int) []error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for slot := 0; slot < rt.Membership().Size(); slot++ {
		if err := rt.View().Refresh(ctx, slot, rt.Membership().Backend(slot)); err != nil {
			errs = append(errs, fmt.Errorf("router re-poll of backend %d: %w", slot, err))
		}
	}
	for _, row := range rt.Stats().Rows {
		var want int64
		for _, v := range led[row.Slot*per : (row.Slot+1)*per] {
			want += v
		}
		if err := checkEqual(fmt.Sprintf("router books, backend %d", row.Slot), want, row.Balls); err != nil {
			errs = append(errs, err)
		}
	}
	if v := rt.Watch().ViolationsTotal(); v != 0 {
		errs = append(errs, fmt.Errorf("router watchdog reported %d violations: %v", v, rt.Watch().ViolationCounts()))
	}
	return errs
}

// ---- serve-wire ----

type serveWireStack struct {
	d     *serve.Dispatcher
	ws    *wire.Server
	done  chan struct{}
	cl    *wire.Client
	led   *ledger
	owned [][]ball
}

func openServeWire(env passEnv) (*serveWireStack, error) {
	s := &serveWireStack{d: serveNode(swN, env.seed), led: newLedger(swN), owned: make([][]ball, swCallers)}
	balls, err := prefill(s.d, 0, nil)
	if err != nil {
		s.d.Close()
		return nil, err
	}
	deal(balls, s.led, s.owned)
	info := serve.Info{Protocol: s.d.Name(), N: swN, Shards: shards, Engine: "fast", Seed: env.seed}
	wh := serve.NewDispatcherWire(s.d, info)
	var h wire.Handler = wh
	if env.tr != nil {
		h = tracedWire{wh, env.tr, lServeHandler}
	}
	var addr string
	if s.ws, addr, s.done, err = serveListener(h, env.logger); err != nil {
		s.d.Close()
		return nil, err
	}
	wh.BindServer(s.ws)
	if s.cl, err = wire.Dial(addr, wire.ClientOptions{Conns: clientConns}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveWireStack) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	s.ws.Close()
	<-s.done
	s.d.Close()
}

func runServeWire(env passEnv) (passOut, error) {
	s, setup, err := timedSetup(env.setups, func() (*serveWireStack, error) { return openServeWire(env) },
		(*serveWireStack).close)
	if err != nil {
		return passOut{}, err
	}
	defer s.close()
	res := drive(driveSpec{
		callers: swCallers, client: wireClient{s.cl}, owned: s.owned, seed: env.seed,
		warm: env.warm, measure: env.measure, slices: env.slices, nBins: swN, led: s.led,
		excess: func() float64 {
			v := s.d.Stats()
			return float64(v.MaxLoad) - float64(ceilDiv(v.Balls, swN))
		},
		choices: func() (int64, int64) { v := s.d.Stats(); return v.Samples, v.Placed },
		tr:      env.tr,
	})
	out := passOut{res: res, setup: setup, errs: res.errs}
	out.errs = append(out.errs, checkServeNode("node", s.d, s.led.counts())...)
	// The global sharded bound the serve watchdog also arms.
	placed := s.d.Allocator().Placed()
	global := ceilDiv(ceilDiv(placed, shards), swN/shards) + 1
	if err := checkAtMost("serve-wire global max load", int64(s.d.Allocator().MaxLoad()), global); err != nil {
		out.errs = append(out.errs, err)
	}
	if env.tr != nil {
		stages := s.d.Obs().StageSnapshots()
		cs, ss := s.cl.Stats(), s.ws.Stats()
		out.layers = map[string]float64{
			"serve.handler_us_p50":          env.tr.quantileUs("serve.handler", 0.50),
			"serve.handler_us_p99":          env.tr.quantileUs("serve.handler", 0.99),
			"serve.queue_us_p50":            float64(stages["queue"].Quantile(0.50)) / 1e3,
			"serve.apply_us_p50":            float64(stages["apply"].Quantile(0.50)) / 1e3,
			"serve.combining_factor":        s.d.Stats().CombiningFactor,
			"wire.transport_us_p50":         env.tr.quantileUs("transport", 0.50),
			"wire.transport_us_p99":         env.tr.quantileUs("transport", 0.99),
			"wire.client_coalescing":        cs.CoalescingFactor,
			"wire.server_batched_per_write": ss.BatchedPerWrite,
			"wire.bytes_per_op":             cs.BytesPerOp,
		}
	}
	return out, nil
}

// ---- keyed-durable ----

// keyedStack is a durable keyed Router behind a wire listener, in
// front of in-process serve nodes that outlive the Router's restarts.
type keyedStack struct {
	env   passEnv
	ds    []*serve.Dispatcher
	cfg   cluster.Config
	led   *ledger
	aff   *affinity
	owned [][]ball

	rt   *cluster.Router
	rec  *keyed.RecoveryInfo
	ws   *wire.Server
	done chan struct{}
	cl   *wire.Client
}

// keyRanks returns caller i's stream of key ranks, one of `callers`:
// Zipf(kdZipfS) over the kdKeySpace ranks of the stream's current key
// space. The streams of callers placing at one rate rotate every
// kdRotateEvery placements in all: each moves on to fresh ranks after
// every kdRotateEvery/callers of its own placements, caller i a
// 1/callers share of that earlier than caller i-1, so the callers
// enter a new space one after another. The first space is epoch0. A
// fresh space's keys are first contacts, assigned and journaled; later
// draws of them re-hit their assignment.
func keyRanks(r *rand.Rand, epoch0 uint64, i, callers int) func() uint64 {
	z := rand.NewZipf(r, kdZipfS, 1, kdKeySpace-1)
	pos := uint64(i) * kdRotateEvery / uint64(callers)
	return func() uint64 {
		epoch := epoch0 + pos/kdRotateEvery
		pos += uint64(callers)
		return epoch*kdKeySpace + z.Uint64()
	}
}

func keyStream(seed uint64, r *rand.Rand, epoch0 uint64, i, callers int) func() string {
	ranks := keyRanks(r, epoch0, i, callers)
	return func() string { return keyName(seed, ranks()) }
}

// kdTrafficEpoch is the key space the traffic starts in: the one the
// prefill ended in.
var kdTrafficEpoch = kdPrepEpochs + uint64(fillBalls(kdBackends*kdN))/kdRotateEvery

// newKeyedStack starts the serve nodes and runs the seeded preparatory
// phase: a Router at fsync=never assigns every key of the kdPrepEpochs
// key spaces before the traffic's, each space in a seeded order, places
// the keyed prefill from the key stream that follows, and crashes,
// leaving its whole journal (no snapshot) for the next Router to
// replay.
func newKeyedStack(env passEnv) (*keyedStack, error) {
	k := &keyedStack{env: env, led: newLedger(kdBackends * kdN), aff: newAffinity(), owned: make([][]ball, kdCallers)}
	bks := make([]cluster.Backend, kdBackends)
	for i := range bks {
		d := serveNode(kdN, mix(env.seed, uint64(i)))
		k.ds = append(k.ds, d)
		var b backend = &cluster.InprocBackend{D: d, Label: fmt.Sprintf("node-%d", i)}
		if env.tr != nil {
			b = tracedBackend{b, env.tr}
		}
		bks[i] = b
	}
	kp, err := keyed.PolicyByName("adaptive", 2, 3, 0)
	if err != nil {
		return nil, err
	}
	pol, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		return nil, err
	}
	k.cfg = cluster.Config{
		Backends: bks, BinsPerBackend: kdN, Policy: pol, Seed: env.seed,
		Staleness: staleness, HealthEvery: healthEvery,
		// One replica per key: hot-key splitting would let a live key
		// be answered by a second backend, which the affinity check
		// forbids.
		Keyed: &keyed.Config{Policy: kp, Replicas: 1},
		KeyedStore: &keyed.StoreOptions{
			Dir: env.dataDir, SnapshotEvery: keyed.DefaultSnapshotEvery, Fsync: wal.SyncAlways,
		},
		Logger: env.logger,
	}
	prep := k.cfg
	prep.KeyedStore = &keyed.StoreOptions{Dir: env.dataDir, SnapshotEvery: -1, Fsync: wal.SyncNever}
	rt, _, err := cluster.OpenRouter(prep)
	if err != nil {
		k.closeNodes()
		return nil, err
	}
	r := rand.New(rand.NewPCG(env.seed, 0x70726570))
	km := rt.Keyed()
	for e := uint64(0); e < kdPrepEpochs; e++ {
		for _, rank := range r.Perm(kdKeySpace) {
			key := keyName(env.seed, e*kdKeySpace+uint64(rank))
			bin, _, _, err := km.Route(key)
			if err != nil {
				rt.Crash()
				k.closeNodes()
				return nil, err
			}
			km.Release(key, bin)
		}
	}
	keys := keyStream(env.seed, r, kdPrepEpochs, 0, 1)
	for i := 0; i < fillBalls(kdBackends*kdN); i++ {
		key := keys()
		bins, _, err := rt.PlaceKeyed(context.Background(), key)
		if err != nil {
			rt.Crash()
			k.closeNodes()
			return nil, err
		}
		k.led.add(bins[0], 1)
		k.aff.placed(key, bins[0]/kdN)
		k.owned[i%kdCallers] = append(k.owned[i%kdCallers], ball{bin: bins[0], key: key})
	}
	rt.Crash()
	return k, nil
}

// open recovers the Router from the journal and puts it behind a wire
// listener: the proxy restart an operator pays for.
func (k *keyedStack) open() (*keyedStack, error) {
	rt, rec, err := cluster.OpenRouter(k.cfg)
	if err != nil {
		return nil, err
	}
	k.rt, k.rec = rt, rec
	info := serve.Info{Protocol: "cluster/keyed[adaptive]+adaptive", N: rt.N(), Shards: kdBackends, Seed: k.env.seed}
	rw := cluster.NewRouterWire(rt, info)
	var h wire.Handler = rw
	if k.env.tr != nil {
		h = tracedWire{rw, k.env.tr, lClusterHandler}
	}
	var addr string
	if k.ws, addr, k.done, err = serveListener(h, k.env.logger); err != nil {
		rt.Crash()
		return nil, err
	}
	rw.BindServer(k.ws)
	if k.cl, err = wire.Dial(addr, wire.ClientOptions{Conns: clientConns}); err != nil {
		k.crash()
		return nil, err
	}
	return k, nil
}

// crash stops the listener and crashes the Router (no final snapshot).
func (k *keyedStack) crash() {
	if k.cl != nil {
		k.cl.Close()
		k.cl = nil
	}
	k.ws.Close()
	<-k.done
	k.rt.Crash()
}

func (k *keyedStack) closeNodes() {
	for _, d := range k.ds {
		d.Close()
	}
}

// walMeter follows the journal through a pass: records appended, and
// bytes per record over the intervals with no compacting snapshot
// (a snapshot resets the log's byte count).
type walMeter struct {
	read                  func() *keyed.DurabilityStats
	started               bool
	last                  keyed.DurabilityStats
	cleanBytes, cleanRecs int64
}

func (w *walMeter) tick() {
	ds := w.read()
	if w.started && ds.Snapshots == w.last.Snapshots {
		w.cleanBytes += ds.LogBytes - w.last.LogBytes
		w.cleanRecs += ds.Records - w.last.Records
	}
	w.last, w.started = *ds, true
}

func runKeyed(env passEnv) (passOut, error) {
	k, err := newKeyedStack(env)
	if err != nil {
		return passOut{}, err
	}
	defer k.closeNodes()
	_, setup, err := timedSetup(env.setups, k.open, (*keyedStack).crash)
	if err != nil {
		return passOut{}, err
	}
	rt := k.rt
	wm := &walMeter{read: rt.Durability}
	res := drive(driveSpec{
		callers: kdCallers, client: wireClient{k.cl},
		newKeys: func(r *rand.Rand, i int) func() string {
			return keyStream(env.seed, r, kdTrafficEpoch, i, kdCallers)
		},
		owned: k.owned, seed: env.seed, warm: env.warm, measure: env.measure, slices: env.slices,
		nBins: kdBackends * kdN, binsPerBackend: kdN, backends: kdBackends, led: k.led, aff: k.aff,
		excess: func() float64 { return clusterExcess(k.ds) },
		choices: func() (int64, int64) {
			ks := rt.Keyed().Stats()
			return ks.Probes, ks.AffinityHits + ks.AffinityMisses
		},
		tick: wm.tick,
		tr:   env.tr,
	})
	out := passOut{res: res, setup: setup, errs: res.errs}
	led := k.led.counts()
	out.errs = append(out.errs, checkRouterBooks(rt, led, kdN)...)
	for i, d := range k.ds {
		out.errs = append(out.errs, checkServeNode(fmt.Sprintf("node-%d", i), d, led[i*kdN:(i+1)*kdN])...)
	}
	if env.tr != nil {
		ks := rt.Keyed().Stats()
		cs, ss := k.cl.Stats(), k.ws.Stats()
		recsPerOp := float64(rt.Durability().Records) / float64(res.attempted)
		out.layers = map[string]float64{
			"cluster.handler_us_p50":        env.tr.quantileUs("cluster.handler", 0.50),
			"cluster.handler_us_p99":        env.tr.quantileUs("cluster.handler", 0.99),
			"cluster.route_self_us_p50":     env.tr.quantileUs("cluster.route_self", 0.50),
			"cluster.backend_us_p50":        env.tr.quantileUs("cluster.backend", 0.50),
			"cluster.backend_us_p99":        env.tr.quantileUs("cluster.backend", 0.99),
			"wire.transport_us_p50":         env.tr.quantileUs("transport", 0.50),
			"wire.transport_us_p99":         env.tr.quantileUs("transport", 0.99),
			"wire.client_coalescing":        cs.CoalescingFactor,
			"wire.server_batched_per_write": ss.BatchedPerWrite,
			"wire.bytes_per_op":             cs.BytesPerOp,
			"keyed.hit_ratio":               ks.AffinityHitRate,
			"keyed.probes_per_route":        float64(ks.Probes) / float64(ks.AffinityHits+ks.AffinityMisses),
			"wal.records_per_op":            recsPerOp,
			"wal.bytes_per_op":              recsPerOp * float64(wm.cleanBytes) / float64(wm.cleanRecs),
			"wal.replay_records_per_s":      float64(k.rec.ReplayedRecords) / (float64(k.rec.ReplayMs) / 1e3),
		}
	}
	// Crash the keyed tier and re-open it: the recovered assignment
	// must be the one before the crash, acknowledged keys included.
	before := rt.Keyed().Mirror()
	k.crash()
	rt2, _, err := cluster.OpenRouter(k.cfg)
	if err != nil {
		out.errs = append(out.errs, fmt.Errorf("re-open after crash: %w", err))
		return out, nil
	}
	after := rt2.Keyed().Mirror()
	rt2.Crash()
	if err := checkRecovered(before, after, k.aff.acked()); err != nil {
		out.errs = append(out.errs, err)
	}
	return out, nil
}

// ---- proxy-http ----

// proxyStack is a Router with the adaptive routing policy behind an
// HTTP listener, whose backends are serve nodes reached over HTTP.
type proxyStack struct {
	ds    []*serve.Dispatcher
	nodes []*http.Server
	rt    *cluster.Router
	proxy *http.Server
	done  []chan struct{}
	tr    *http.Transport
	base  string
	led   *ledger
	owned [][]ball
}

func openProxy(env passEnv) (*proxyStack, error) {
	p := &proxyStack{led: newLedger(phBackends * phN), owned: make([][]ball, phCallers)}
	bks := make([]cluster.Backend, phBackends)
	var balls []ball
	for i := range bks {
		d := serveNode(phN, mix(env.seed, uint64(i)))
		p.ds = append(p.ds, d)
		var err error
		if balls, err = prefill(d, i*phN, balls); err != nil {
			p.close()
			return nil, err
		}
		info := serve.Info{Protocol: d.Name(), N: phN, Shards: shards, Engine: "fast", Seed: mix(env.seed, uint64(i))}
		h := serve.NewHandler(d, info)
		if env.tr != nil {
			h = tracedHTTP(h, env.tr, lBackendHTTP)
		}
		srv, url, done, err := httpListener(h)
		if err != nil {
			p.close()
			return nil, err
		}
		p.nodes, p.done = append(p.nodes, srv), append(p.done, done)
		var b backend = cluster.NewHTTPBackend(url)
		if env.tr != nil {
			b = tracedBackend{b, env.tr}
		}
		bks[i] = b
	}
	deal(balls, p.led, p.owned)
	pol, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		p.close()
		return nil, err
	}
	p.rt, _, err = cluster.OpenRouter(cluster.Config{
		Backends: bks, BinsPerBackend: phN, Policy: pol, Seed: env.seed,
		Staleness: staleness, HealthEvery: healthEvery, Logger: env.logger,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	info := serve.Info{Protocol: "cluster/" + p.rt.Policy(), N: p.rt.N(), Shards: phBackends, Seed: env.seed}
	h := cluster.NewHandler(p.rt, info)
	if env.tr != nil {
		h = tracedHTTP(h, env.tr, lClusterHandler)
	}
	srv, url, done, err := httpListener(h)
	if err != nil {
		p.close()
		return nil, err
	}
	p.proxy, p.base, p.done = srv, url, append(p.done, done)
	p.tr = &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	return p, nil
}

func (p *proxyStack) close() {
	if p.tr != nil {
		p.tr.CloseIdleConnections()
	}
	if p.proxy != nil {
		p.proxy.Close()
	}
	if p.rt != nil {
		p.rt.Close()
	}
	for _, s := range p.nodes {
		s.Close()
	}
	for _, done := range p.done {
		<-done
	}
	for _, d := range p.ds {
		d.Close()
	}
}

func runProxy(env passEnv) (passOut, error) {
	p, setup, err := timedSetup(env.setups, func() (*proxyStack, error) { return openProxy(env) }, (*proxyStack).close)
	if err != nil {
		return passOut{}, err
	}
	defer p.close()
	res := drive(driveSpec{
		callers: phCallers, client: httpClient{c: &http.Client{Transport: p.tr}, base: p.base},
		owned: p.owned, seed: env.seed, warm: env.warm, measure: env.measure, slices: env.slices,
		nBins: phBackends * phN, binsPerBackend: phN, backends: phBackends, led: p.led,
		excess:  func() float64 { return clusterExcess(p.ds) },
		choices: func() (int64, int64) { st := p.rt.Stats(); return st.Probes, st.Picks },
		tr:      env.tr,
	})
	out := passOut{res: res, setup: setup, errs: res.errs}
	led := p.led.counts()
	out.errs = append(out.errs, checkRouterBooks(p.rt, led, phN)...)
	for i, d := range p.ds {
		out.errs = append(out.errs, checkServeNode(fmt.Sprintf("node-%d", i), d, led[i*phN:(i+1)*phN])...)
	}
	// The cross-backend bound the cluster watchdog checks, on the
	// benchmark's own count of balls routed through the proxy:
	// ⌈routed placements / backends⌉ + 2 (bulk slack of single balls).
	var horizon, observed int64
	for i := range res.routedPlaced {
		horizon += res.routedPlaced[i]
		observed = max(observed, res.routedPlaced[i]-res.routedRemoved[i])
	}
	if err := checkAtMost("proxy-http routed balls on one backend", observed, ceilDiv(horizon, phBackends)+2); err != nil {
		out.errs = append(out.errs, err)
	}
	if env.tr != nil {
		st := p.rt.Stats()
		out.layers = map[string]float64{
			"cluster.handler_us_p50":                env.tr.quantileUs("cluster.handler", 0.50),
			"cluster.handler_us_p99":                env.tr.quantileUs("cluster.handler", 0.99),
			"cluster.backend_us_p50":                env.tr.quantileUs("cluster.backend", 0.50),
			"cluster.backend_us_p99":                env.tr.quantileUs("cluster.backend", 0.99),
			"cluster.probes_per_place":              st.ProbesPerPick,
			"cluster.pick_staleness_ms_p50":         float64(p.rt.PickStaleness().Quantile(0.50)),
			"cluster.http_client_transport_us_p50":  env.tr.quantileUs("transport", 0.50),
			"cluster.http_backend_transport_us_p50": env.tr.quantileUs("cluster.backend_transport", 0.50),
		}
	}
	return out, nil
}
