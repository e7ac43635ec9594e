package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/harness"
)

var baselinePath = filepath.Join("..", "..", "testdata", "BENCH_baseline.json")
var goldenPath = filepath.Join("..", "..", "testdata", "REPORT_baseline.md")

// TestCLIGoldenMatch: the CLI on the committed baseline reproduces the
// committed report byte for byte (the same contract the internal golden
// test pins, here through flag parsing and file IO).
func TestCLIGoldenMatch(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-title", "anonlead reproduction report — baseline", baselinePath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("CLI output differs from committed golden (%d vs %d bytes)", stdout.Len(), len(want))
	}
}

// TestCLIDeterministic: two invocations emit identical bytes.
func TestCLIDeterministic(t *testing.T) {
	render := func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{baselinePath}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	if render() != render() {
		t.Fatal("lereport output not byte-deterministic")
	}
}

// TestCLICSV: -format csv emits the long-form export.
func TestCLICSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "csv", baselinePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "section,protocol,family,n") {
		t.Fatalf("CSV header: %s", lines[0])
	}
	if len(lines) < 100 {
		t.Fatalf("only %d CSV rows from the baseline artifact", len(lines))
	}
}

// TestCLIOutFile: -out writes the report to disk and prints the path.
func TestCLIOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.md")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out, baselinePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Fatalf("stdout: %s", stdout.String())
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "# Reproduction report") {
		t.Fatalf("written report wrong:\n%.200s", buf)
	}
}

// writeArtifact writes a one-cell artifact with the given messages mean.
func writeArtifact(t *testing.T, dir, name string, msgs float64) string {
	t.Helper()
	dist := func(mean float64) *harness.ArtifactDist {
		return &harness.ArtifactDist{StdDev: 1, Min: mean, Max: mean, P50: mean, P90: mean, P99: mean}
	}
	a := harness.Artifact{Schema: harness.ArtifactSchema, Cells: []harness.ArtifactCell{{
		Protocol: "ire", Family: "expander", N: 64, Trials: 8, Successes: 8,
		Messages: msgs, Bits: msgs, Rounds: 10, Charged: 10,
		MessagesDist: dist(msgs), BitsDist: dist(msgs), RoundsDist: dist(10), ChargedDist: dist(10),
	}}}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCLISeriesTrends: three artifacts in chronological order produce a
// trajectory section classifying the improvement.
func TestCLISeriesTrends(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		writeArtifact(t, dir, "pr1.json", 1000),
		writeArtifact(t, dir, "pr2.json", 900),
		writeArtifact(t, dir, "pr3.json", 500),
	}
	var stdout, stderr bytes.Buffer
	if code := run(paths, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"## Trajectory — 3 artifacts: pr1.json → pr2.json → pr3.json",
		"1000 → 900 → 500",
		"improved",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIErrors: usage and IO failures exit 2 with a diagnostic.
func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no artifact
		{"-format", "pdf", baselinePath}, // unknown format
		{filepath.Join(t.TempDir(), "missing.json")}, // unreadable file
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Fatalf("args %v: no diagnostic", args)
		}
	}
}

// TestCLIUsageDocumentsFlags: -h names every flag and the series form.
func TestCLIUsageDocumentsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit %d", code)
	}
	usage := stderr.String()
	for _, want := range []string{"-format", "-out", "-title", "-rel-tol", "-sigmas", "newest.json"} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage missing %q:\n%s", want, usage)
		}
	}
}

// writeFile materializes an artifact in dir and returns its path.
func writeFile(t *testing.T, dir, name string, a harness.Artifact) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepArtifact runs a real (tiny) orchestrated sweep and returns its
// artifact, optionally scaling every cost mean by factor to synthesize a
// regression or improvement (and, against fixed predictions, drift).
func sweepArtifact(t *testing.T, factor float64) harness.Artifact {
	t.Helper()
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 11}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	if factor != 1 {
		for i := range a.Cells {
			c := &a.Cells[i]
			c.Messages *= factor
			c.Bits *= factor
			c.Rounds *= factor
			c.Charged *= factor
			for _, d := range []*harness.ArtifactDist{
				c.MessagesDist, c.BitsDist, c.RoundsDist, c.ChargedDist,
			} {
				d.Min *= factor
				d.Max *= factor
				d.P50 *= factor
				d.P90 *= factor
				d.P99 *= factor
			}
		}
	}
	return a
}

func TestGateIdenticalArtifactsExitZero(t *testing.T) {
	dir := t.TempDir()
	a := sweepArtifact(t, 1)
	base := writeFile(t, dir, "base.json", a)
	head := writeFile(t, dir, "head.json", a)
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "regressed,removed,drift", base, head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on identical artifacts; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "**0 regressed · 0 improved · 0 drifted · 14 unchanged**") {
		t.Fatalf("summary missing clean verdict:\n%s", out.String())
	}
}

func TestGateRegressedArtifactExitNonZero(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeFile(t, dir, "head.json", sweepArtifact(t, 2)) // every cost doubled
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "regressed", base, head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on regressed artifact, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "🔴") || !strings.Contains(errOut.String(), "regressed") {
		t.Fatalf("regression rows or verdict missing:\n%s\n%s", out.String(), errOut.String())
	}
	// Without the gate the same series reports but exits zero.
	if code := run([]string{base, head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d without -fail-on, want 0", code)
	}
	// A single artifact has no trajectory: the gate no-ops.
	if code := run([]string{"-fail-on", "regressed,removed,drift", head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a single artifact, want 0", code)
	}
}

// TestGateRemovedCells: with -fail-on removed, a newest point missing
// cells of the oldest fails instead of silently passing with reduced
// coverage — unless the newest point is a partial artifact, whose missing
// cells were never assigned to it.
func TestGateRemovedCells(t *testing.T) {
	dir := t.TempDir()
	full := sweepArtifact(t, 1)
	shrunk := full
	shrunk.Cells = full.Cells[:1]
	base := writeFile(t, dir, "base.json", full)
	head := writeFile(t, dir, "head.json", shrunk)
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "regressed,removed", base, head}, &out, &errOut); code != 1 {
		t.Fatalf("shrunk sweep passed the gate (exit %d)", code)
	}
	if !strings.Contains(errOut.String(), "missing from the newest artifact") ||
		!strings.Contains(out.String(), "**Removed cells**") {
		t.Fatalf("removed-cell verdict missing:\n%s\n%s", out.String(), errOut.String())
	}
	// Without the removed condition the same series exits zero.
	if code := run([]string{"-fail-on", "regressed", base, head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d with -fail-on regressed only, want 0", code)
	}

	shrunk.Plan = &harness.ArtifactPlan{Total: len(full.Cells), Indices: []int{0}}
	partial := writeFile(t, dir, "partial.json", shrunk)
	errOut.Reset()
	if code := run([]string{"-fail-on", "regressed,removed", base, partial}, &out, &errOut); code != 0 {
		t.Fatalf("partial newest point failed the removed gate (exit %d)", code)
	}
	if !strings.Contains(errOut.String(), "downgraded to a warning") {
		t.Fatalf("stderr missing the partial downgrade:\n%s", errOut.String())
	}
}

// TestGateDrift: scaling measured costs away from the persisted
// predictions trips -fail-on drift at the default tolerance.
func TestGateDrift(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeFile(t, dir, "head.json", sweepArtifact(t, 2)) // ratio doubles
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "drift", base, head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on drifted ratios, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "drifted beyond tolerance") {
		t.Fatalf("stderr missing drift verdict:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "msgs_vs_pred") || !strings.Contains(out.String(), "🟠 drifted") {
		t.Fatalf("summary missing drift rows:\n%s", out.String())
	}
	// Identical artifacts never drift.
	same := writeFile(t, dir, "same.json", sweepArtifact(t, 1))
	if code := run([]string{"-fail-on", "drift", base, same}, &out, &errOut); code != 0 {
		t.Fatalf("identical artifacts drifted (exit %d)", code)
	}
}

// TestGateRejectsOlderSchema: only the current schema is readable; an
// older artifact fails with a diagnostic naming its schema and the fix.
func TestGateRejectsOlderSchema(t *testing.T) {
	dir := t.TempDir()
	old := sweepArtifact(t, 1)
	old.Schema = "anonlead/bench-harness/v5"
	path := writeFile(t, dir, "v5.json", old)
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "regressed", baselinePath, path}, &out, &errOut); code != 2 {
		t.Fatalf("v5 artifact accepted (exit %d)", code)
	}
	for _, want := range []string{"anonlead/bench-harness/v5", "regenerate"} {
		if !strings.Contains(errOut.String(), want) {
			t.Fatalf("diagnostic missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestGateCheckedInBaseline: the committed baseline is a current-schema
// artifact with distributions on every cell, so the gate runs the
// variance-aware path, and it gates clean against itself with every
// metric of every cell classified.
func TestGateCheckedInBaseline(t *testing.T) {
	a, err := harness.ReadArtifactFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range a.Cells {
		if c.MessagesDist == nil || c.BitsDist == nil || c.RoundsDist == nil || c.ChargedDist == nil {
			t.Fatalf("baseline cell %d lacks distributions", i)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-fail-on", "regressed,removed", baselinePath, baselinePath}, &out, &errOut); code != 0 {
		t.Fatalf("baseline self-gate exit %d:\n%s", code, errOut.String())
	}
	// 4 costs + success + 2 measured/predicted ratios per cell.
	want := fmt.Sprintf("**0 regressed · 0 improved · 0 drifted · %d unchanged** metrics across %d tracked cells.",
		7*len(a.Cells), len(a.Cells))
	if !strings.Contains(out.String(), want) {
		t.Fatalf("baseline self-gate missing %q", want)
	}
}

// TestGateUsageErrors: a malformed gate invocation exits 2 with a
// diagnostic — no artifact, an unknown -fail-on condition (including the
// old trend word), or an unreadable file in the series.
func TestGateUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := [][]string{
		{"-fail-on", "regressed"},                                        // no artifact
		{"-fail-on", "sometimes", baselinePath, baselinePath},            // unknown condition
		{"-fail-on", "regressed,regressing", baselinePath, baselinePath}, // the old trend word
		{"-fail-on", "regressed", baselinePath, missing},                 // unreadable newest
		{"-fail-on", "regressed", missing, missing},                      // unreadable both
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Fatalf("args %v: no diagnostic", args)
		}
	}
}

// TestGateUsageDocumentsConditions: -h explains every gate condition and
// the tests behind the verdicts, so the CLI is self-documenting (not just
// the README prose).
func TestGateUsageDocumentsConditions(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit %d", code)
	}
	usage := stderr.String()
	for _, want := range []string{
		"-fail-on", "regressed", "removed", "drift",
		"msgs_vs_pred", "-format csv", "-rel-tol", "-sigmas",
		"Wilson", "Welch",
	} {
		if !strings.Contains(usage, want) {
			t.Fatalf("usage missing %q:\n%s", want, usage)
		}
	}
}

// TestGateCSVFormat: -format csv on a base/head pair emits one parseable
// row per (cell, metric) of the head, identity columns leading and the
// pair's verdict in the trend column; the gate still decides the exit.
func TestGateCSVFormat(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", sweepArtifact(t, 1))
	head := writeFile(t, dir, "head.json", sweepArtifact(t, 2))
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "csv", base, head}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut.String())
	}
	records, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out.String())
	}
	header := strings.Join(records[0], ",")
	if !strings.HasPrefix(header, "section,protocol,family,n,presumed_n,adversary,metric") ||
		!strings.HasSuffix(header, ",trend") {
		t.Fatalf("header %q", header)
	}
	// 2 head cells × (4 cost + success) metrics.
	if want := 1 + 2*5; len(records) != want {
		t.Fatalf("%d CSV rows, want %d:\n%s", len(records), want, out.String())
	}
	for _, rec := range records[1:] {
		metric, trend := rec[6], rec[len(rec)-1]
		if metric != "success_rate" && trend != "regressed" {
			t.Fatalf("doubled %s row classified %q:\n%s", metric, trend, out.String())
		}
	}
	// The gate applies to the CSV form too.
	if code := run([]string{"-format", "csv", "-fail-on", "regressed", base, head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on regressed CSV run, want 1", code)
	}
	// Rejects unknown formats.
	if code := run([]string{"-format", "xml", base, head}, &out, &errOut); code != 2 {
		t.Fatalf("bad -format accepted (exit %d)", code)
	}
}
