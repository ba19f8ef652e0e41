// Command perfbench is the repository's benchmark: four workloads run
// against the real stack in one process behind loopback listeners,
// with the daemons' default configuration, printing every metric by
// name and unit and checking every output. See README.md.
//
//	perfbench --workload serve-wire --seed 1 --seconds 10 --trace 0
//	perfbench steady --workload sim --runs 10 --seconds 10
//
// run.sh builds it from the checkout and passes --root and --build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

const (
	wlSim       = "sim"
	wlServeWire = "serve-wire"
	wlKeyed     = "keyed-durable"
	wlProxyHTTP = "proxy-http"
)

var workloads = []string{wlSim, wlServeWire, wlKeyed, wlProxyHTTP}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

// runner runs one workload's pass.
var runners = map[string]func(passEnv) (passOut, error){
	wlSim:       runSim,
	wlServeWire: runServeWire,
	wlKeyed:     runKeyed,
	wlProxyHTTP: runProxy,
}

// setups is how many identical set-ups a serving workload's run times
// (the median is reported): short set-ups are timed more often. sim
// times the start of every Allocator it runs.
var setups = map[string]int{wlServeWire: 11, wlKeyed: 7, wlProxyHTTP: 11}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 10, "measured seconds of the main pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (ladder and traced passes)")
	root := fs.String("root", ".", "checkout root (for the environment stamp)")
	build := fs.String("build", ".bench_build", "directory for the run's data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := runners[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds ≥ 1, --trace 0|1\n", workloads)
		return 2
	}
	dataDir := filepath.Join(*build, fmt.Sprintf("perfbench-data-%d", os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	stamp, _ := json.Marshal(stampEnv(*root, dataDir))
	fmt.Printf("# env %s\n", stamp)
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	slog.SetDefault(logger)
	var errs []error
	var res result
	res.Metrics = map[string]metricValue{}
	tally := func(wl string, out passOut) {
		res.Attempted += out.res.attempted
		res.Failed += out.res.failed
		for _, err := range out.errs {
			errs = append(errs, fmt.Errorf("%s: %w", wl, err))
		}
	}
	pass := func(wl string, env passEnv) (passOut, bool) {
		env.dataDir = filepath.Join(dataDir, wl)
		if err := os.MkdirAll(env.dataDir, 0o755); err != nil {
			errs = append(errs, err)
			return passOut{}, false
		}
		t0 := time.Now()
		out, err := runners[wl](env)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass took %.1fs\n", wl, time.Since(t0).Seconds())
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", wl, err))
			return out, false
		}
		tally(wl, out)
		return out, true
	}
	base := passEnv{
		seed: *seed, logger: logger, warm: time.Second,
		measure: time.Duration(*seconds) * time.Second, slices: 20, setups: setups[*workload],
	}

	if *trace == 0 {
		if out, ok := pass(*workload, base); ok {
			printE2E(out)
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{out.res.e2e(out.setup)[d.Name], d.Unit}
			}
		}
	} else {
		rows, layers, lerrs := runLadder(*seed, *workload, dataDir)
		errs = append(errs, lerrs...)
		printLadder(rows)
		traced := map[string]map[string]float64{}
		for _, wl := range workloads[1:] {
			env := base
			env.tr = newTracer()
			if wl != *workload {
				// Traced metrics of the other serving stacks come from a
				// short pass of each.
				env.warm, env.measure, env.slices, env.setups = 500*time.Millisecond, 2*time.Second, 4, 1
			}
			if out, ok := pass(wl, env); ok {
				traced[wl] = out.layers
				e := out.res.e2e(out.setup)
				fmt.Printf("# traced %s pass: ops_per_s %.1f latency_p50_us %.2f latency_p99_us %.2f\n",
					wl, e["ops_per_s"], e["latency_p50_us"], e["latency_p99_us"])
			}
		}
		for _, d := range perLayer {
			v, ok := layers[d.Name]
			if d.on != nil {
				v, ok = traced[d.sourceOf(*workload)][d.Name]
			}
			if !ok {
				errs = append(errs, fmt.Errorf("per-layer metric %s was not measured", d.Name))
				continue
			}
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Errorf("metric %s has no value", name))
			delete(res.Metrics, name)
		}
	}
	res.Correct = len(errs) == 0
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	printMetrics(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printE2E(out passOut) {
	fmt.Printf("# latency samples %d (p99 has %d beyond it), ops measured %d over %d slices\n",
		out.res.lat.Count(), out.res.lat.Count()/100, out.res.measuredOps, len(out.res.sliceRates))
	fmt.Printf("# slice rates %.0f\n", out.res.sliceRates)
}

func printLadder(rows []ladderRow) {
	fmt.Printf("# %-20s %10s %12s %10s %10s  %s\n", "ladder layer", "ops", "ns/op", "allocs/op", "B/op", "balance")
	for _, r := range rows {
		bal := "-"
		if r.MaxLoad != nil {
			bal = fmt.Sprintf("max %d gap %d bound %d held %v", *r.MaxLoad, *r.Gap, *r.Bound, *r.BoundHeld)
		}
		fmt.Printf("# %-20s %10d %12.1f %10.3f %10.1f  %s\n", r.Layer, r.Ops, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, bal)
	}
	line, _ := json.Marshal(rows)
	fmt.Printf("# ladder %s\n", line)
}

func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "# correct %v attempted %d failed %d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "# %-40s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
