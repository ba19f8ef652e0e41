package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// steady runs one workload several times, each with another seed, and
// prints for every end-to-end metric the median, the quartiles and the
// spread (interquartile distance over the median) against the metric's
// bound in BENCHMARK.json. A later change can then tell a metric that
// stayed within its bound from one whose spread cannot resolve it.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs, seeds first..first+runs-1")
	first := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	root := fs.String("root", ".", "checkout root (holds BENCHMARK.json)")
	build := fs.String("build", ".bench_build", "directory for the runs' data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, err := readBounds(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	shares := map[float64]int{}
	for i := 0; i < *runs; i++ {
		seed := *first + uint64(i)
		cmd := exec.Command(os.Args[0], "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0", "--root", *root, "--build", *build)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench steady: run with seed %d failed: %v %v\n", seed, err, jerr)
			return 1
		}
		shares[float64(res.Failed)/float64(res.Attempted)]++
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Printf("# seed %d: %s\n", seed, lines[len(lines)-1])
	}
	fmt.Printf("%-18s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	ok := true
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(values[d.Name])
		spread := (q3 - q1) / q2
		verdict := ""
		if spread > bounds[d.Name] {
			verdict, ok = "  wider than its bound: unresolved", false
		}
		fmt.Printf("%-18s %14.4f %14.4f %14.4f %8.4f %6.2f%s\n", d.Name, q1, q2, q3, spread, bounds[d.Name], verdict)
	}
	fmt.Printf("failed shares over runs: %v\n", shares)
	if !ok || len(shares) != 1 {
		return 1
	}
	return 0
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
