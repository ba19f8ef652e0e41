package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/hdrhist"
	"repro/internal/keyed"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The per-layer ladder: each layer's public entry point run alone, in
// memory, over one seeded op script per workload. Every row reports
// its cost per operation and the balance it left behind.

const (
	ladderN      = 1 << 16 // bins of the single-node layers
	ladderNodes  = 4       // backends of the Router layers
	ladderNodeN  = 4096    // bins per backend there
	walAppends   = 200     // fsync=always appends timed one by one
	rngDraws     = 20_000_000
	histN        = 1 << 16
	histBalls    = 100 * histN
	allocOps     = 1_000_000
	dispatchOps  = 100_000
	codecOps     = 500_000
	routeOps     = 200_000
	routerOps    = 100_000
	serveHTTPOps = 50_000
	proxyHTTPOps = 30_000
)

// scriptOp is one step of the op script: a placement (of the key of
// popularity rank rank) or the removal of live ball pick mod live.
type scriptOp struct {
	place bool
	pick  uint64
	rank  uint64
}

// opScript alternates placements and removals like the traffic passes.
func opScript(seed uint64, workload string, n int) []scriptOp {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rand.New(rand.NewPCG(seed, h.Sum64()))
	ranks := keyRanks(r, 0, 0, 1)
	ops := make([]scriptOp, n)
	for i := range ops {
		ops[i] = scriptOp{place: i%2 == 0, pick: r.Uint64(), rank: ranks()}
	}
	return ops
}

// ladderRow is one layer's line in the ladder.
type ladderRow struct {
	Layer       string  `json:"layer"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// MaxLoad, Gap and BoundHeld describe the load state the layer
	// left (absent for layers without one); Bound is the paper's
	// max-load bound checked.
	MaxLoad   *int   `json:"max_load,omitempty"`
	Gap       *int   `json:"gap,omitempty"`
	Bound     *int64 `json:"bound,omitempty"`
	BoundHeld *bool  `json:"bound_held,omitempty"`
}

func (r *ladderRow) balance(loads []int, bound int64) {
	mx, mn := slices.Max(loads), slices.Min(loads)
	gap, held := mx-mn, int64(mx) <= bound
	r.MaxLoad, r.Gap, r.Bound, r.BoundHeld = &mx, &gap, &bound, &held
}

// timeOps runs f for i in [0, n) and returns its per-op cost.
func timeOps(layer string, n int, f func(i int)) ladderRow {
	runtime.GC()
	am := startAllocMeter()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	el := time.Since(t0)
	allocs, bytes := am.perOp(int64(n))
	return ladderRow{Layer: layer, Ops: n, NsPerOp: float64(el.Nanoseconds()) / float64(n), AllocsPerOp: allocs, BytesPerOp: bytes}
}

// liveSet is a ladder layer's own record of its live balls.
type liveSet struct{ balls []ball }

func (l *liveSet) take(pick uint64) ball {
	j := int(pick % uint64(len(l.balls)))
	b := l.balls[j]
	l.balls[j] = l.balls[len(l.balls)-1]
	l.balls = l.balls[:len(l.balls)-1]
	return b
}

func (l *liveSet) ledger(n int) []int64 {
	led := make([]int64, n)
	for _, b := range l.balls {
		led[b.bin]++
	}
	return led
}

// runLadder runs every ladder layer and returns its rows, the
// per-layer metrics they give, and any check failures.
func runLadder(seed uint64, workload, dataDir string) ([]ladderRow, map[string]float64, []error) {
	var rows []ladderRow
	var errs []error
	m := map[string]float64{}
	fail := func(layer string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("ladder %s: %w", layer, err))
		}
	}
	ctx := context.Background()
	script := func(n int) []scriptOp { return opScript(seed, workload, n) }

	// rng: bounded draws.
	{
		r := rng.New(seed)
		var sink uint64
		row := timeOps("rng", rngDraws, func(int) { sink += r.Uint64n(ladderN) })
		if sink == 0 {
			fail("rng", fmt.Errorf("%d draws summed to 0", rngDraws))
		}
		rows, m["rng.ns_per_draw"] = append(rows, row), row.NsPerOp
	}

	// protocol: the fused histogram loop of a fresh Allocator.
	{
		a := ballsbins.New(ballsbins.Adaptive(), histN, ballsbins.WithSeed(seed))
		row := timeOps("protocol.hist", 1, func(int) { a.PlaceBatch(histBalls) })
		row.Ops, row.NsPerOp = histBalls, row.NsPerOp/histBalls
		row.AllocsPerOp, row.BytesPerOp = row.AllocsPerOp/histBalls, row.BytesPerOp/histBalls
		_, err := finishSim(a)
		fail("protocol.hist", err)
		row.balance(a.Loads(), ceilDiv(a.Placed(), histN)+1)
		rows, m["protocol.hist_ns_per_ball"] = append(rows, row), row.NsPerOp
	}

	// ballsbins: the per-ball bucket path, alone and sharded.
	{
		a := ballsbins.New(ballsbins.Adaptive(), ladderN, ballsbins.WithSeed(seed))
		live := &liveSet{}
		for i := 0; i < fillBalls(ladderN); i++ {
			b, _ := a.Place()
			live.balls = append(live.balls, ball{bin: b})
		}
		ops := script(allocOps)
		row := timeOps("ballsbins.allocator", allocOps, func(i int) {
			if ops[i].place {
				b, _ := a.Place()
				live.balls = append(live.balls, ball{bin: b})
			} else {
				a.Remove(live.take(ops[i].pick).bin)
			}
		})
		fail("ballsbins.allocator", checkLedger(live.ledger(ladderN), a.Loads()))
		row.balance(a.Loads(), ceilDiv(a.Placed(), ladderN)+1)
		rows = append(rows, row)
		m["ballsbins.allocator_ns_per_op"], m["ballsbins.allocator_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp

		sa := ballsbins.NewSharded(ballsbins.Adaptive(), ladderN, shards, ballsbins.WithSeed(seed))
		live = &liveSet{}
		for i := 0; i < fillBalls(ladderN); i++ {
			b, _ := sa.Place()
			live.balls = append(live.balls, ball{bin: b})
		}
		row = timeOps("ballsbins.sharded", allocOps, func(i int) {
			if ops[i].place {
				b, _ := sa.Place()
				live.balls = append(live.balls, ball{bin: b})
			} else {
				sa.Remove(live.take(ops[i].pick).bin)
			}
		})
		fail("ballsbins.sharded", checkLedger(live.ledger(ladderN), sa.Loads()))
		row.balance(sa.Loads(), ceilDiv(ceilDiv(sa.Placed(), shards), ladderN/shards)+1)
		rows, m["ballsbins.sharded_ns_per_op"] = append(rows, row), row.NsPerOp
	}

	// serve: the Dispatcher, one caller at a time.
	{
		d := serveNode(ladderN, seed)
		balls, err := prefill(d, 0, nil)
		fail("serve.dispatch", err)
		live := &liveSet{balls}
		ops := script(dispatchOps)
		row := timeOps("serve.dispatch", dispatchOps, func(i int) {
			if ops[i].place {
				b, _, err := d.Place(ctx)
				fail("serve.dispatch", err)
				live.balls = append(live.balls, ball{bin: b})
			} else {
				fail("serve.dispatch", d.Remove(ctx, live.take(ops[i].pick).bin))
			}
		})
		errs = append(errs, checkServeNode("ladder serve.dispatch", d, live.ledger(ladderN))...)
		row.balance(d.Allocator().Loads(), ceilDiv(ceilDiv(d.Allocator().Placed(), shards), ladderN/shards)+1)
		d.Close()
		rows = append(rows, row)
		m["serve.dispatch_ns_per_op"], m["serve.dispatch_allocs_per_op"], m["serve.dispatch_bytes_per_op"] =
			row.NsPerOp, row.AllocsPerOp, row.BytesPerOp
	}

	// wire: request and reply encode, frame and parse.
	{
		ops := script(codecOps)
		var frame, payload, body []byte
		var bins [1]int
		var rd bytes.Reader
		br := bufio.NewReader(&rd)
		row := timeOps("wire.codec", codecOps, func(i int) {
			req := wire.Request{Type: wire.MsgPlace, ID: uint64(i), Count: 1}
			if !ops[i].place {
				req = wire.Request{Type: wire.MsgRemove, ID: uint64(i), Bin: int(ops[i].pick % ladderN)}
			}
			payload = wire.AppendRequest(payload[:0], req)
			frame = wire.AppendFrame(frame[:0], payload)
			rd.Reset(frame)
			br.Reset(&rd)
			p, err := wire.ReadFrame(br)
			if err == nil {
				var got wire.Request
				if got, err = wire.ParseRequest(p); err == nil && got.ID != req.ID {
					err = fmt.Errorf("request id %d parsed as %d", req.ID, got.ID)
				}
			}
			fail("wire.codec", err)
			body = body[:0]
			if ops[i].place {
				bins[0] = int(ops[i].pick % ladderN)
				body = wire.AppendPlaceBody(body, bins[:], 1)
			}
			payload = wire.AppendReply(payload[:0], req.ID, wire.CodeOK, body)
			frame = wire.AppendFrame(frame[:0], payload)
			rd.Reset(frame)
			br.Reset(&rd)
			p, err = wire.ReadFrame(br)
			if err == nil {
				var rep wire.Reply
				if rep, err = wire.ParseReply(p); err == nil && ops[i].place {
					var bins []int
					if bins, _, err = wire.ParsePlaceBody(rep.Body); err == nil && bins[0] != int(ops[i].pick%ladderN) {
						err = fmt.Errorf("bin %d parsed as %d", ops[i].pick%ladderN, bins[0])
					}
				}
			}
			fail("wire.codec", err)
		})
		rows = append(rows, row)
		m["wire.codec_ns_per_op"], m["wire.codec_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp
	}

	// keyed: KeyMap.Route and Release on the key script.
	{
		kp, err := keyed.PolicyByName("adaptive", 2, 3, 0)
		fail("keyed.route", err)
		km := keyed.New(keyed.Config{Bins: kdBackends, Policy: kp, Replicas: 1, Seed: seed})
		live := &liveSet{}
		ops := script(routeOps)
		row := timeOps("keyed.route", routeOps, func(i int) {
			if ops[i].place || len(live.balls) == 0 {
				key := keyName(seed, ops[i].rank)
				bin, _, _, err := km.Route(key)
				fail("keyed.route", err)
				live.balls = append(live.balls, ball{bin: bin, key: key})
			} else {
				b := live.take(ops[i].pick)
				km.Release(b.key, b.bin)
			}
		})
		ks := km.Stats()
		row.balance(int64sToInts(ks.PerBinKeys), ks.PolicyBound+1)
		rows = append(rows, row)
		m["keyed.route_ns_per_op"], m["keyed.route_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp
	}

	// wal: fsync=always appends of journal-sized records.
	{
		dir := filepath.Join(dataDir, "ladder-wal")
		l, _, err := wal.Open(dir, wal.Options{Fsync: wal.SyncAlways})
		if err != nil {
			fail("wal.append", err)
		} else {
			rec := keyed.EncodeOp(keyed.Op{Type: keyed.OpAssign, Key: keyName(seed, 1<<40), To: 1})
			lat := hdrhist.New()
			row := timeOps("wal.append", walAppends, func(int) {
				t0 := time.Now()
				_, err := l.Append(rec)
				lat.RecordSince(t0)
				fail("wal.append", err)
			})
			fail("wal.append", l.Close(nil))
			rows = append(rows, row)
			m["wal.append_us_p50"], m["wal.append_us_p99"] = quantileUs(lat, 0.50), quantileUs(lat, 0.99)
		}
		os.RemoveAll(dir)
	}

	// cluster: the Router over in-process backends, then both tiers'
	// HTTP handlers served in memory.
	{
		rt, ds, live, err := ladderRouter(seed)
		if err != nil {
			fail("cluster.router", err)
		} else {
			ops := script(routerOps)
			row := timeOps("cluster.router", routerOps, func(i int) {
				if ops[i].place || len(live.balls) == 0 {
					bins, _, err := rt.Place(ctx, 1)
					if fail("cluster.router", err); err == nil {
						live.balls = append(live.balls, ball{bin: bins[0]})
					}
				} else {
					fail("cluster.router", rt.Remove(ctx, live.take(ops[i].pick).bin))
				}
			})
			row.balanceNodes(ds, live, &errs)
			rows = append(rows, row)
			m["cluster.router_ns_per_op"], m["cluster.router_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp

			info := serve.Info{Protocol: "cluster/" + rt.Policy(), N: rt.N(), Shards: ladderNodes, Seed: seed}
			row = httpLadder("cluster.http", cluster.NewHandler(rt, info), proxyHTTPOps, script(proxyHTTPOps), live, &errs)
			row.balanceNodes(ds, live, &errs)
			rows = append(rows, row)
			m["cluster.http_ns_per_op"], m["cluster.http_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp
			rt.Close()
			for _, d := range ds {
				d.Close()
			}
		}

		d := serveNode(ladderN, seed)
		balls, err := prefill(d, 0, nil)
		fail("serve.http", err)
		hlive := &liveSet{balls}
		info := serve.Info{Protocol: d.Name(), N: ladderN, Shards: shards, Engine: "fast", Seed: seed}
		row := httpLadder("serve.http", serve.NewHandler(d, info), serveHTTPOps, script(serveHTTPOps), hlive, &errs)
		errs = append(errs, checkServeNode("ladder serve.http", d, hlive.ledger(ladderN))...)
		row.balance(d.Allocator().Loads(), ceilDiv(ceilDiv(d.Allocator().Placed(), shards), ladderN/shards)+1)
		d.Close()
		rows = append(rows, row)
		m["serve.http_ns_per_op"], m["serve.http_allocs_per_op"] = row.NsPerOp, row.AllocsPerOp
	}
	for _, r := range rows {
		if r.BoundHeld != nil && !*r.BoundHeld {
			errs = append(errs, fmt.Errorf("ladder %s: max load %d above the bound %d", r.Layer, *r.MaxLoad, *r.Bound))
		}
	}
	return rows, m, errs
}

func int64sToInts(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// ladderRouter opens the adaptive Router over in-process serve nodes,
// each prefilled with fillBalls, and returns the live set of
// the prefill in global bins.
func ladderRouter(seed uint64) (*cluster.Router, []*serve.Dispatcher, *liveSet, error) {
	var ds []*serve.Dispatcher
	closeAll := func() {
		for _, d := range ds {
			d.Close()
		}
	}
	pol, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	bks := make([]cluster.Backend, ladderNodes)
	var balls []ball
	for i := range bks {
		d := serveNode(ladderNodeN, mix(seed, uint64(i)))
		ds = append(ds, d)
		if balls, err = prefill(d, i*ladderNodeN, balls); err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		bks[i] = &cluster.InprocBackend{D: d, Label: fmt.Sprintf("node-%d", i)}
	}
	rt, _, err := cluster.OpenRouter(cluster.Config{
		Backends: bks, BinsPerBackend: ladderNodeN, Policy: pol, Seed: seed,
		Staleness: staleness, HealthEvery: healthEvery,
	})
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return rt, ds, &liveSet{balls}, nil
}

// balanceNodes checks the serve nodes behind a Router layer against
// the layer's live set and records their joint balance.
func (r *ladderRow) balanceNodes(ds []*serve.Dispatcher, live *liveSet, errs *[]error) {
	led := live.ledger(len(ds) * ladderNodeN)
	var loads []int
	var bound int64
	for i, d := range ds {
		*errs = append(*errs, checkServeNode(fmt.Sprintf("ladder %s node-%d", r.Layer, i), d, led[i*ladderNodeN:(i+1)*ladderNodeN])...)
		loads = append(loads, d.Allocator().Loads()...)
		for s := 0; s < shards; s++ {
			size := int64(d.Allocator().ShardSize(s))
			bound = max(bound, ceilDiv(d.ShardStats(s).Placed, size)+1)
		}
	}
	r.balance(loads, bound)
}

// httpLadder serves the place/remove script through h in memory.
func httpLadder(layer string, h http.Handler, n int, ops []scriptOp, live *liveSet, errs *[]error) ladderRow {
	var failed int
	row := timeOps(layer, n, func(i int) {
		rec := httptest.NewRecorder()
		if ops[i].place || len(live.balls) == 0 {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", nil))
			var pr serve.PlaceResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pr) != nil {
				failed++
				return
			}
			live.balls = append(live.balls, ball{bin: pr.Bin})
		} else {
			b := live.take(ops[i].pick)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/remove?bin="+strconv.Itoa(b.bin), nil))
			if rec.Code != http.StatusOK {
				failed++
			}
		}
	})
	if failed > 0 {
		*errs = append(*errs, fmt.Errorf("ladder %s: %d of %d requests failed", layer, failed, n))
	}
	return row
}
