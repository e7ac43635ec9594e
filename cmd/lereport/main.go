// Command lereport renders a bench artifact (or an ordered series of
// them) as a paper-style reproduction report and, given two or more, is
// the repository's regression gate. The report has Table-1-shaped
// measured vs predicted tables per protocol×family, the Dieudonné–Pelc
// knowledge ablation, fault-degradation ladders anchored at their
// fault-free cells, repeated-election epoch scenario tables (amortized
// per-epoch cost and recovery time), and Wilson success intervals
// throughout.
//
// Usage:
//
//	lereport BENCH_harness.json                      # report on stdout
//	lereport -out REPORT.md BENCH_harness.json       # write to a file
//	lereport -format csv BENCH_harness.json          # tidy per-(cell,metric) rows
//	lereport old.json mid.json new.json              # series: newest reported + trajectory
//	lereport -rel-tol 0.1 -sigmas 2 a.json b.json    # looser cost thresholds
//	lereport -fail-on regressed,removed testdata/BENCH_baseline.json BENCH_harness.json
//
// Arguments are artifact files in chronological order, oldest first. With
// one artifact the report has no trajectory section. With two or more the
// report describes the newest artifact and appends the trajectory: cells
// align by (protocol, family, n, presumed_n, adversary, profile mode,
// scenario), duplicates pair by occurrence, and every metric of a cell
// present at every point is classified improved/unchanged/regressed
// between the endpoints. A cost change must clear both -rel-tol and
// -sigmas Welch standard errors; the success rate compares by
// Wilson-interval disjointness; the measured/predicted ratios
// (msgs_vs_pred, time_vs_pred) are flagged drifted when they move more
// than 25% relative to the oldest point. A two-point series is the
// base-versus-head gate CI runs (make gate). Only the current artifact
// schema is readable; older files fail with a "regenerate" error.
//
// -fail-on takes a comma-separated list of exit-1 conditions: "regressed"
// when any net verdict regressed, "removed" when a cell occurrence of the
// oldest point is missing from the newest (without it a change could pass
// by deleting the cells where a regression lives; against a partial
// newest point, a distributed-sweep worker's file, it stays a warning),
// and "drift" when any ratio drifted. With a single artifact there is no
// trajectory and the gate no-ops.
//
// -phases FILE appends a phase-breakdown table (phase | spans | total |
// mean | share) rendered from an obs metrics snapshot — the -metrics-out
// file that lebench/lesweep write when observability is enabled. Phase
// timings are wall-clock, so the section is opt-in and never part of the
// byte-deterministic baseline report.
//
// Output is byte-deterministic for the same inputs — the committed
// testdata/REPORT_baseline.md is the golden render of
// testdata/BENCH_baseline.json (refresh both together: make baseline).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/report"
	"anonlead/internal/trajectory"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format  = fs.String("format", "md", "output format: md (paper-style markdown) or csv (one row per cell metric)")
		outPath = fs.String("out", "", "write the report here instead of stdout")
		title   = fs.String("title", "", "report title (default \"Reproduction report\")")
		relTol  = fs.Float64("rel-tol", 0, "series: minimum relative cost effect to call a change (0 = default 0.05)")
		sigmas  = fs.Float64("sigmas", 0, "series: minimum cost effect in Welch standard errors (0 = default 3)")
		failOn  = fs.String("fail-on", "none", "comma-separated exit-1 conditions (need a series): none, regressed, removed, drift")
		phases  = fs.String("phases", "", "append a phase-breakdown table from this obs metrics snapshot (the -metrics-out file of lebench/lesweep; md format only)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lereport [flags] artifact.json [older.json ... newest.json]\n\n"+
			"Renders a paper-style reproduction report from one bench artifact, or from an\n"+
			"ordered series (oldest first): the newest artifact is reported and a trajectory\n"+
			"section is appended. Every metric of every aligned cell is classified improved/\n"+
			"unchanged/regressed between the endpoints: a cost change must clear both -rel-tol\n"+
			"and -sigmas Welch standard errors, success rates compare by Wilson-interval\n"+
			"disjointness, and the measured/predicted ratios (msgs_vs_pred, time_vs_pred) are\n"+
			"flagged drifted past 25%%. -fail-on turns verdicts into exit status 1; the CI gate\n"+
			"runs \"regressed,removed\" on the baseline and the head sweep.\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExamples:\n"+
			"  lereport -out REPORT.md BENCH_harness.json\n"+
			"  lereport -fail-on regressed,removed testdata/BENCH_baseline.json BENCH_harness.json\n"+
			"  lereport -format csv old.json mid.json newest.json > cells.csv\n")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "lereport: at least one artifact file is required")
		fs.Usage()
		return 2
	}
	if *format != "md" && *format != "csv" {
		fmt.Fprintf(stderr, "lereport: unknown -format %q (want md or csv)\n", *format)
		return 2
	}
	failRegressed, failRemoved, failDrift := false, false, false
	for _, cond := range strings.Split(*failOn, ",") {
		switch strings.TrimSpace(cond) {
		case "none", "":
		case "regressed":
			failRegressed = true
		case "removed":
			failRemoved = true
		case "drift":
			failDrift = true
		default:
			fmt.Fprintf(stderr, "lereport: unknown -fail-on condition %q (want none, regressed, removed, drift)\n", cond)
			return 2
		}
	}
	opts := report.Options{
		Title: *title,
		Trend: trajectory.Thresholds{RelTol: *relTol, Sigmas: *sigmas},
	}

	var rep report.Report
	if len(paths) == 1 {
		a, err := harness.ReadArtifactFile(paths[0])
		if err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
		rep = report.New(a, opts)
	} else {
		series, err := trajectory.LoadSeries(paths...)
		if err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
		rep = report.NewSeries(series, opts)
	}

	var out string
	if *format == "csv" {
		var err error
		if out, err = rep.CSV(); err != nil {
			fmt.Fprintln(stderr, "lereport:", err)
			return 2
		}
	} else {
		out = rep.Markdown()
		if *phases != "" {
			points, err := obs.ReadSnapshotFile(*phases)
			if err != nil {
				fmt.Fprintln(stderr, "lereport:", err)
				return 2
			}
			stats := obs.PhaseStats(points)
			if len(stats) == 0 {
				fmt.Fprintf(stderr, "lereport: %s has no anonlead_phase_seconds series (run with -trace-out/-metrics-out enabled)\n", *phases)
				return 2
			}
			out += report.PhaseMarkdown(stats)
		}
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(out), 0o644); err != nil {
			fmt.Fprintln(stderr, "lereport: write report:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	} else {
		fmt.Fprint(stdout, out)
	}
	// The gate: a single artifact has no trajectory (rep.Trends is nil),
	// so there is nothing to fail on.
	t := rep.Trends
	if t == nil {
		return 0
	}
	failed := false
	if failRegressed && t.HasRegressions() {
		fmt.Fprintf(stderr, "lereport: %d metric(s) regressed\n", t.Regressed)
		failed = true
	}
	if failRemoved && len(t.Removed) > 0 {
		if t.NewestPartial {
			// A partial newest point is a distributed-sweep worker's
			// artifact: cells it lacks were never assigned to it, so
			// failing would punish sharding, not a shrunk sweep.
			fmt.Fprintf(stderr, "lereport: %d cell(s) missing from the newest artifact, but it is a partial artifact — removed gate downgraded to a warning\n",
				len(t.Removed))
		} else {
			fmt.Fprintf(stderr, "lereport: %d cell(s) missing from the newest artifact (refresh the baseline if intentional)\n",
				len(t.Removed))
			failed = true
		}
	}
	if failDrift && t.HasDrift() {
		fmt.Fprintf(stderr, "lereport: %d measured/predicted ratio(s) drifted beyond tolerance\n", t.Drifted)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
