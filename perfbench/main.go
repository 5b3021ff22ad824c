// Command perfbench is the repository's benchmark. It boots in-process
// bsd nodes (and, per workload, a semisync replica) on real on-disk
// journals, drives one named workload
// over the wire, checks the final instance with a correctness gate and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//	perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the run
// with spans around every layer call and reports the per-layer metrics,
// a self-time table and the tracing overhead against the untraced run
// of the same seed. --workload all runs every workload, untraced then
// traced, each in a fresh process. Build and run it from the repository
// root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// spec is one workload, driven by one client in a closed loop. rate is
// the nominal pace that turns --seconds into a fixed op count: phases
// are bounded by op count, so the directory and the journal grow by the
// same amount on every commit measured.
type spec struct {
	name         string
	replicated   bool // primary plus one semisync replica
	mix          mix
	rate         float64
	uniformReads bool // GETs drawn from every corpus person, not the hot set
}

var specs = []*spec{
	{name: "ingest", replicated: true, mix: mix{create: 85, move: 5, del: 5, get: 5}, rate: 700},
	{name: "report", mix: mix{search: 80, get: 10, create: 4, move: 3, del: 3}, rate: 3000, uniformReads: true},
}

const (
	corpusEntries = 100000 // whitepages corpus size of every workload
	setupReps     = 3      // boots per run; setup_s is their median
)

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	entries   int
	setupReps int
	out       string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, report or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the op stream")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for journals, spans and cached results")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	cfg.entries, cfg.setupReps = corpusEntries, setupReps
	switch {
	case cfg.workload != "all" && specByName(cfg.workload) == nil:
		return cfg, fmt.Errorf("unknown --workload %q", cfg.workload)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what a run measured and what its gate found.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric // end-to-end, or per-layer when traced
	e2e       []metric // end-to-end, also kept in a traced run
	self      []layerRow
	gate      []string
	failures  []string
	stamp     string
}

// stamp records the environment a result was measured in.
func stamp(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("workload=%s seed=%d entries=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s",
		cfg.workload, cfg.seed, cfg.entries, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func toJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return out
}

func cachePath(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-s%d-n%d.json", cfg.workload, cfg.seed, cfg.seconds, cfg.entries))
}

// report prints the human-readable lines, caches an untraced result
// for the traced run's overhead table, and ends with the JSON line.
func report(w io.Writer, cfg config, res *result) error {
	fmt.Fprintf(w, "# stamp %s\n", res.stamp)
	for _, f := range res.failures {
		fmt.Fprintf(w, "# failed op: %s\n", f)
	}
	for _, g := range res.gate {
		fmt.Fprintf(w, "# gate FAIL: %s\n", g)
	}
	verdict := "pass"
	if !res.correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "# gate %s (attempted=%d failed=%d fail_frac=%g)\n", verdict, res.attempted, res.failed,
		float64(res.failed)/float64(max(1, res.attempted)))
	for _, m := range res.e2e {
		fmt.Fprintf(w, "metric %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if cfg.trace {
		printSelfTimes(w, res.self)
		for _, m := range res.metrics {
			fmt.Fprintf(w, "layer  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
		printOverhead(w, cfg, res.e2e)
	} else {
		data, err := json.Marshal(toJSON(res.e2e))
		if err != nil {
			return err
		}
		if err := os.WriteFile(cachePath(cfg), data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: toJSON(res.metrics)})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// printOverhead compares the traced run's end-to-end metrics with the
// untraced run of the same seed, when one was made in this directory.
func printOverhead(w io.Writer, cfg config, traced []metric) {
	data, err := os.ReadFile(cachePath(cfg))
	if err != nil {
		fmt.Fprintf(w, "# tracing overhead: no untraced result for this seed yet (run --trace 0 first)\n")
		return
	}
	var base map[string]jsonMetric
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(w, "# tracing overhead: unreadable cached result: %v\n", err)
		return
	}
	fmt.Fprintf(w, "# tracing overhead (traced - untraced, same seed)\n")
	for _, m := range traced {
		b, ok := base[m.name]
		if !ok {
			continue
		}
		rel := math.NaN()
		if b.Value != 0 {
			rel = (m.value - b.Value) / b.Value * 100
		}
		fmt.Fprintf(w, "#   %-20s %-12s traced=%.4f untraced=%.4f overhead=%+.4f %s (%+.1f%%)\n",
			cfg.workload, m.name, m.value, b.Value, m.value-b.Value, m.unit, rel)
	}
}

// runAll runs every workload, untraced then traced, each in a fresh
// process: back-to-back runs in one process drift as the heap and the
// scheduler age.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		name := sp.name
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
				"--trace", trace, "--out", cfg.out}
			fmt.Printf("## %s\n", strings.Join(append([]string{"perfbench"}, args...), " "))
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%s: %v\n", name, trace, err)
				code = 1
			}
		}
	}
	return code
}
