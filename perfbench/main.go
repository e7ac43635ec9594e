// Command perfbench is the repository benchmark. It runs one named workload
// as a closed loop with a single caller for at least --seconds seconds,
// verifies every output, and prints the metrics as one JSON object on the
// last line of standard output: the end-to-end metrics from an untraced run
// (--trace 0) or the per-layer metrics from a traced run (--trace 1).
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload gate-sweep --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the mapping
// from each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// defaultSeed is the seed the pinned expectations cover: the root seed of
// testdata/BENCH_baseline.json and of perfbench/expect.json.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"elections_per_cpu_s", "1/s"},
	{"sim_msgs_per_cpu_s", "1/s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"pass_cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_msg", "count"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported on every workload (a
// layer the workload never enters reads 0). Times and counts are per pass
// over the workload's input set; setup layers are per set-up.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"spectral.profile_s", "s"},
	{"harness.section_s.table1", "s"},
	{"harness.section_s.revocable", "s"},
	{"harness.section_s.knowledge", "s"},
	{"harness.section_s.faults", "s"},
	{"harness.artifact_s", "s"},
	{"core.ire.step_s", "s"},
	{"core.ire.allocs_per_msg", "count"},
	{"baseline.walknotify.step_s", "s"},
	{"baseline.walknotify.allocs_per_msg", "count"},
	{"core.revocable.step_s", "s"},
	{"core.revocable.allocs_per_msg", "count"},
	{"baseline.flood.step_s", "s"},
	{"baseline.flood.allocs_per_msg", "count"},
	{"sim.new_s", "s"},
	{"sim.new_allocs", "count"},
	{"core.collect_s", "s"},
	{"sim.round_s", "s"},
	{"sim.round_self_s", "s"},
	{"transport.connect_s", "s"},
	{"transport.node_step_s", "s"},
	{"transport.write_s", "s"},
	{"transport.read_wait_s", "s"},
	{"transport.sync_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"sim.rounds", "count"},
	{"sim.messages", "count"},
	{"sim.node_steps", "count"},
	{"transport.frames", "count"},
	{"transport.frame_bytes", "count"},
	{"adversary.dropped", "count"},
	{"adversary.crashed", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	pin      string
}

// workload is one named input set with its untraced and traced loops.
type workload interface {
	// setup builds and profiles every network the workload runs on. It is
	// called several times; the last call's inputs are the ones measured.
	setup(seed uint64) (setupCost, error)
	// measure runs untraced passes for at least seconds seconds.
	measure(seconds float64) (tally, error)
	// traced runs traced passes for at least seconds seconds, recording
	// spans into rec and per-layer totals into lt.
	traced(seconds float64, rec *recorder, lt *layerTotals) (tally, error)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"gate-sweep":     func() workload { return &gateSweep{} },
	"flood-scale":    func() workload { return newFloodScale() },
	"transport-chan": func() workload { return newTransportChan() },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "minimum measured time per run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its span dump to")
	fs.StringVar(&cfg.pin, "pin", "", "write the workload's outcomes at --seed to this expectations file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}

	env := currentEnv(cfg)
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench env %s\n", envLine)

	w := mk()
	if cfg.pin != "" {
		ew, ok := w.(*electionWorkload)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s is verified against %s; there is nothing to pin\n", cfg.workload, baselinePath)
			return 2
		}
		if err := ew.pin(cfg.pin, cfg.seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := execute(w, cfg, env, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed verification\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// execute sets the workload up, runs it, and assembles the result.
func execute(w workload, cfg config, env runEnv, log io.Writer) (result, error) {
	var costs []setupCost
	for i := 0; i < setupRepeats; i++ {
		c, err := w.setup(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		costs = append(costs, c)
	}
	setup := medianCost(costs)

	if !cfg.trace {
		t, err := w.measure(cfg.seconds)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "perfbench %s: %d passes, %d elections, %d messages, %d/%d verified; %.1f s wall-clock, %.1f s CPU\n",
			cfg.workload, len(t.passes), t.elections, t.messages, t.attempted-t.failed, t.attempted,
			t.wall.Seconds(), sum(t.passes).Seconds())
		return t.result(setup.total()), nil
	}

	rec := newRecorder()
	lt := newLayerTotals()
	rec.setupSpans(setup)
	t, err := w.traced(cfg.seconds, rec, lt)
	if err != nil {
		return result{}, err
	}
	lt.setGlobal("graph.build_s", setup.build.Seconds())
	lt.setGlobal("spectral.profile_s", setup.profile.Seconds())
	res := t.layerResult(lt)
	path, err := writeDump(cfg, env, rec, res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "perfbench %s: traced %d passes, %d/%d verified; spans in %s\n",
		cfg.workload, len(t.passes), t.attempted-t.failed, t.attempted, path)
	return res, nil
}
