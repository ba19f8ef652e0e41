package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/hdrhist"
	"repro/internal/keyed"
)

// Each correctness check is fed one wrong answer and must fail on it,
// so that no check passes vacuously.

func TestLedgerOffByOneBall(t *testing.T) {
	led := []int64{3, 0, 5, 4}
	if err := checkLedger(led, []int{3, 0, 5, 4}); err != nil {
		t.Fatalf("matching loads rejected: %v", err)
	}
	if err := checkLedger(led, []int{3, 0, 6, 4}); err == nil {
		t.Fatal("a ledger off by one ball passed")
	}
	if err := checkEqual("live balls", 12, 11); err == nil {
		t.Fatal("books off by one ball passed")
	}
}

func TestBinOutOfRange(t *testing.T) {
	if err := checkBin(9, 10); err != nil {
		t.Fatal(err)
	}
	for _, bin := range []int{-1, 10} {
		if checkBin(bin, 10) == nil {
			t.Fatalf("bin %d of 10 passed", bin)
		}
	}
}

func TestLiveKeyAnsweredFromAnotherBackend(t *testing.T) {
	a := newAffinity()
	if err := a.placed("k", 2); err != nil {
		t.Fatal(err)
	}
	if err := a.placed("k", 2); err != nil {
		t.Fatalf("same backend rejected: %v", err)
	}
	if err := a.placed("k", 1); err == nil {
		t.Fatal("a live key answered from another backend passed")
	}
	// Once every ball of the key has left, a new backend is legal.
	a.removed("k")
	a.removed("k")
	a.removed("k")
	if err := a.placed("k", 1); err != nil {
		t.Fatalf("key without live balls rejected: %v", err)
	}
	if got := a.acked()["k"]; got != 1 {
		t.Fatalf("acked backend %d, want 1", got)
	}
}

func simReportOf(loads []int, placed, samples int64) simReport {
	mx, mn := slices.Max(loads), slices.Min(loads)
	var sum, sq int64
	for _, l := range loads {
		sum += int64(l)
		sq += int64(l) * int64(l)
	}
	return simReport{MaxLoad: mx, MinLoad: mn, Gap: mx - mn, SumSquares: sq, Balls: sum, Placed: placed, Samples: samples}
}

func TestSimMaxLoadOneAboveBound(t *testing.T) {
	ok := []int{3, 2, 2, 1} // 8 balls in 4 bins: bound ⌈8/4⌉+1 = 3
	if err := checkSim(ok, simReportOf(ok, 8, 9), 8); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	over := []int{4, 2, 1, 1}
	if err := checkSim(over, simReportOf(over, 8, 9), 8); err == nil {
		t.Fatal("a max load one above the bound passed")
	}
}

func TestSimMisreportedState(t *testing.T) {
	loads := []int{3, 2, 2, 1}
	for name, mutate := range map[string]func(*simReport){
		"max":     func(r *simReport) { r.MaxLoad++ },
		"gap":     func(r *simReport) { r.Gap-- },
		"squares": func(r *simReport) { r.SumSquares++ },
		"balls":   func(r *simReport) { r.Balls-- },
		"samples": func(r *simReport) { r.Samples = 7 },
	} {
		rep := simReportOf(loads, 8, 9)
		mutate(&rep)
		if err := checkSim(loads, rep, 8); err == nil {
			t.Errorf("misreported %s passed", name)
		}
	}
	if err := checkSim(loads, simReportOf(loads, 9, 9), 9); err == nil {
		t.Error("a ball placed but missing from the bins passed")
	}
}

func TestShardMaxOneAboveBound(t *testing.T) {
	bound := ceilDiv(1000, 250) + 1
	if err := checkAtMost("shard max", bound, bound); err != nil {
		t.Fatal(err)
	}
	if err := checkAtMost("shard max", bound+1, bound); err == nil {
		t.Fatal("a max load one above the bound passed")
	}
}

func TestRecoveredAssignmentMissingAckedKey(t *testing.T) {
	kp, err := keyed.PolicyByName("adaptive", 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := keyed.Config{Bins: 4, Policy: kp, Replicas: 1, Seed: 7}
	full, partial := keyed.New(cfg), keyed.New(cfg)
	acked := map[string]int{}
	for _, key := range []string{"a", "b", "c"} {
		bin, _, _, err := full.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		acked[key] = bin
		if key != "c" {
			partial.Route(key)
		}
	}
	before := full.Mirror()
	if err := checkRecovered(before, full.Mirror(), acked); err != nil {
		t.Fatalf("exact recovery rejected: %v", err)
	}
	if err := checkRecovered(before, partial.Mirror(), acked); err == nil {
		t.Fatal("a recovered assignment missing an acknowledged key passed")
	}
	wrong := map[string]int{"a": (acked["a"] + 1) % 4}
	if err := checkRecovered(before, full.Mirror(), wrong); err == nil {
		t.Fatal("an acknowledged key recovered on another backend passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestQuantileUs(t *testing.T) {
	h := hdrhist.New()
	if !math.IsNaN(quantileUs(h, 0.5)) {
		t.Fatal("an empty histogram has a quantile")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i) * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := quantileUs(h, c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("q%v = %v µs, want %v within 2%%", c.q, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloads)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the printed metrics")
	}
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("per_layer differs from the printed metrics")
	}
}
