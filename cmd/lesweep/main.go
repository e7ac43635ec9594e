// Command lesweep runs the artifact sweep matrix as a distributed job: it
// plans the same cell matrix as `lebench -exp sweeps`, cuts it into
// contiguous shards, runs one worker per shard, and merges the partial
// artifacts into a single schema-v6 BENCH file.
//
// Per-trial seeds are pure functions of the root seed and the cell, so
// the merged artifact is byte-identical to a single-process
// `lebench -exp sweeps -strip-timings` run of the same seed — which is
// how CI's dist-sweep job verifies it, with cmp:
//
//	lesweep -workers 2 -quick -json BENCH_dist.json
//	lebench -exp sweeps -quick -parallel -strip-timings -json BENCH_local.json
//	cmp BENCH_dist.json BENCH_local.json
//
// By default workers run in-process (goroutine shards over one
// GOMAXPROCS pool — cheapest, no subprocess spawn). -exec switches to
// process workers: each shard becomes a `lebench -cells i:j` subprocess
// whose partial artifact the coordinator collects, which is the mode
// that generalizes to many machines. Crashed workers are retried
// (-retries) before the sweep fails.
//
// -debug-addr serves the live sweep view while it runs: /metrics is the
// Prometheus registry (per-worker spans, cells done, ETA gauges),
// /debug/progress is the coordinator's JSON progress (per-worker state,
// elapsed, retries, running ETA), /debug/pprof/* the standard profiles.
// -trace-out and -metrics-out flush the phase spans (Chrome trace-event
// JSON) and the registry snapshot after the merge.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anonlead/internal/obs"
	"anonlead/internal/spectral"
	"anonlead/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: exit 2 for a flag the sweep cannot run with,
// rejected before any worker starts; exit 1 for a sweep that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lesweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers    = fs.Int("workers", 2, "number of shards to cut the plan into (at least 1)")
		parallel   = fs.Int("parallel", 0, "max workers running at once (0 = all; in-process workers share one pool anyway)")
		retries    = fs.Int("retries", 1, "reruns of a crashed worker before the sweep fails")
		local      = fs.Bool("local", true, "run workers in-process (goroutine shards)")
		execCmd    = fs.String("exec", "", "run workers as subprocesses of this lebench command (e.g. 'go run ./cmd/lebench'); implies -local=false")
		quick      = fs.Bool("quick", false, "shrunken CI matrix (must match the comparison lebench run)")
		trials     = fs.Int("trials", 0, "override trials per cell (0 = matrix defaults)")
		seed       = fs.Uint64("seed", 1, "root seed; per-trial seeds derive deterministically from it")
		profile    = fs.String("profile", "auto", "spectral profile regime for sweep cells: exact, estimate, or auto")
		jsonPath   = fs.String("json", "BENCH_dist.json", "where to write the merged artifact")
		keep       = fs.Bool("keep-partials", false, "leave per-worker partial artifacts on disk (subprocess mode)")
		quiet      = fs.Bool("q", false, "suppress progress logging")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/pprof/* and the /debug/progress live sweep view on this address (e.g. localhost:6060)")
		traceOut   = fs.String("trace-out", "", "write the sweep's phase spans as Chrome trace-event JSON after the merge")
		metricsOut = fs.String("metrics-out", "", "write the metrics-registry snapshot as JSON after the merge (render with lereport -phases)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "lesweep: "+format+"\n", a...)
		return 2
	}
	if *workers < 1 {
		return usage("-workers must be at least 1, got %d", *workers)
	}
	mode, err := spectral.ParseMode(*profile)
	if err != nil {
		return usage("-profile: %v", err)
	}
	if *execCmd == "" && !*local {
		return usage("-local=false requires -exec (no worker command to spawn)")
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lesweep:", err)
		return 1
	}

	if *traceOut != "" || *metricsOut != "" || *debugAddr != "" {
		obs.Enable()
	}
	cfg := sweep.Config{
		Workers:      *workers,
		Parallel:     *parallel,
		Retries:      *retries,
		Quick:        *quick,
		Trials:       *trials,
		Seed:         *seed,
		Profile:      mode,
		KeepPartials: *keep,
		Exec:         strings.Fields(*execCmd),
	}
	if !*quiet {
		cfg.Log = stderr
	}
	c := sweep.ForSweeps(cfg)
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr, func() any { return c.Progress() })
		if err != nil {
			return fail(fmt.Errorf("debug endpoint: %w", err))
		}
		fmt.Fprintf(stderr, "lesweep: debug endpoint on http://%s\n", addr)
	}
	art, err := c.Run(context.Background())
	if err != nil {
		return fail(err)
	}
	if err := art.WriteFile(*jsonPath); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d cells, merged from %d workers)\n", *jsonPath, len(art.Cells), *workers)
	if *traceOut != "" {
		if err := obs.WriteChromeTraceFile(*traceOut); err != nil {
			return fail(fmt.Errorf("trace-out: %w", err))
		}
		fmt.Fprintf(stdout, "wrote %s (%d spans)\n", *traceOut, len(obs.SpanEvents()))
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(*metricsOut); err != nil {
			return fail(fmt.Errorf("metrics-out: %w", err))
		}
		fmt.Fprintf(stdout, "wrote %s\n", *metricsOut)
	}
	return 0
}
