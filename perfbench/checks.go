package main

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/keyed"
)

// The correctness checks. Each compares the program's answer with a
// record the benchmark keeps itself from the replies it received, or
// with a property the paper's method must have; none compares with a
// stored copy of earlier output.

// ledger is the benchmark's own count of live balls per global bin,
// built only from place and remove replies.
type ledger struct{ bins []atomic.Int64 }

func newLedger(n int) *ledger { return &ledger{bins: make([]atomic.Int64, n)} }

func (l *ledger) add(bin int, d int64) { l.bins[bin].Add(d) }

func (l *ledger) counts() []int64 {
	out := make([]int64, len(l.bins))
	for i := range l.bins {
		out[i] = l.bins[i].Load()
	}
	return out
}

// checkBin fails a returned bin outside [0, n).
func checkBin(bin, n int) error {
	if bin < 0 || bin >= n {
		return fmt.Errorf("returned bin %d outside [0,%d)", bin, n)
	}
	return nil
}

// checkLedger fails unless the program's per-bin loads equal the
// ledger bin for bin.
func checkLedger(led []int64, loads []int) error {
	if len(led) != len(loads) {
		return fmt.Errorf("ledger covers %d bins, program reports %d", len(led), len(loads))
	}
	for i := range led {
		if led[i] != int64(loads[i]) {
			return fmt.Errorf("bin %d: ledger holds %d balls, program reports %d", i, led[i], loads[i])
		}
	}
	return nil
}

// checkEqual fails unless two counts of the same quantity agree.
func checkEqual(what string, want, got int64) error {
	if want != got {
		return fmt.Errorf("%s: benchmark counts %d, program reports %d", what, want, got)
	}
	return nil
}

// checkAtMost fails an observed load above its bound.
func checkAtMost(what string, observed, bound int64) error {
	if observed > bound {
		return fmt.Errorf("%s: %d exceeds the bound %d", what, observed, bound)
	}
	return nil
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// simReport is what an Allocator says about its own load vector.
type simReport struct {
	MaxLoad, MinLoad, Gap     int
	SumSquares, Balls, Placed int64
	Samples                   int64
}

// checkSim recomputes the load statistics from the raw per-bin loads
// and checks them against the Allocator's report and the paper's
// adaptive bound: max ≤ ⌈m/n⌉+1 for the m balls placed, and at least
// one random choice per placed ball.
func checkSim(loads []int, rep simReport, placed int64) error {
	if len(loads) == 0 {
		return fmt.Errorf("no bins")
	}
	mx, mn := slices.Max(loads), slices.Min(loads)
	var sum, sq int64
	for _, l := range loads {
		sum += int64(l)
		sq += int64(l) * int64(l)
	}
	for _, c := range []struct {
		what      string
		want, got int64
	}{
		{"max load", int64(mx), int64(rep.MaxLoad)},
		{"min load", int64(mn), int64(rep.MinLoad)},
		{"gap", int64(mx - mn), int64(rep.Gap)},
		{"sum of squared loads", sq, rep.SumSquares},
		{"balls in bins", sum, rep.Balls},
		{"balls placed", placed, rep.Placed},
	} {
		if err := checkEqual(c.what, c.want, c.got); err != nil {
			return err
		}
	}
	if err := checkEqual("balls in bins vs balls placed", placed, sum); err != nil {
		return err
	}
	if err := checkAtMost("max load", int64(mx), ceilDiv(placed, int64(len(loads)))+1); err != nil {
		return err
	}
	if rep.Samples < placed {
		return fmt.Errorf("%d random choices for %d balls placed", rep.Samples, placed)
	}
	return nil
}

// affinity is the benchmark's own key→backend map: while a key has
// live balls, every placement for it must be answered by the backend
// that answered the first of them. It also remembers, for every key
// ever acknowledged, the backend of its latest acknowledgement.
type affinity struct {
	seed   maphash.Seed
	shards [64]affShard
}

type affShard struct {
	mu    sync.Mutex
	owner map[string]int
	live  map[string]int
}

func newAffinity() *affinity {
	a := &affinity{seed: maphash.MakeSeed()}
	for i := range a.shards {
		a.shards[i].owner = make(map[string]int)
		a.shards[i].live = make(map[string]int)
	}
	return a
}

func (a *affinity) shard(key string) *affShard {
	return &a.shards[maphash.String(a.seed, key)%uint64(len(a.shards))]
}

// placed records an acknowledged placement of key on backend.
func (a *affinity) placed(key string, backend int) error {
	s := a.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.owner[key]; ok && s.live[key] > 0 && prev != backend {
		return fmt.Errorf("key %q has %d live balls on backend %d but was answered by backend %d",
			key, s.live[key], prev, backend)
	}
	s.owner[key] = backend
	s.live[key]++
	return nil
}

// removed records an acknowledged removal of one of key's balls.
func (a *affinity) removed(key string) {
	s := a.shard(key)
	s.mu.Lock()
	s.live[key]--
	s.mu.Unlock()
}

// acked returns every acknowledged key with its latest backend.
func (a *affinity) acked() map[string]int {
	out := make(map[string]int)
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		for k, b := range s.owner {
			out[k] = b
		}
		s.mu.Unlock()
	}
	return out
}

// checkRecovered fails unless the keyed tier re-opened after a crash
// holds exactly the assignment it held before, and every key the
// benchmark saw acknowledged is assigned to the backend that
// acknowledged it.
func checkRecovered(before, after keyed.Mirror, acked map[string]int) error {
	for key, backend := range acked {
		bins, ok := after.Keys[key]
		if !ok {
			return fmt.Errorf("acknowledged key %q is missing after recovery", key)
		}
		if !slices.Contains(bins, backend) {
			return fmt.Errorf("acknowledged key %q on backend %d recovered on %v", key, backend, bins)
		}
	}
	if !before.Equal(after) {
		return fmt.Errorf("recovered assignment (%d keys) differs from the one before the crash (%d keys)",
			len(after.Keys), len(before.Keys))
	}
	return nil
}
