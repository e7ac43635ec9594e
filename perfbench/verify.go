package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"anonlead/internal/harness"
)

// repoRoot is where the repository's files are found: the working
// directory, which run.sh makes the repository root.
var repoRoot = "."

// baselinePath is the committed gate artifact, relative to repoRoot.
const baselinePath = "testdata/BENCH_baseline.json"

// expectJSON pins the election workloads' outcomes at one seed (written
// by --pin).
//
//go:embed expect.json
var expectJSON []byte

// expectations are pinned outcomes, by workload and input label.
type expectations struct {
	Seed      uint64                        `json:"seed"`
	Workloads map[string]map[string]outcome `json:"workloads"`
}

func parseExpectations(buf []byte) (expectations, error) {
	var ex expectations
	if err := json.Unmarshal(buf, &ex); err != nil {
		return expectations{}, fmt.Errorf("expectations: %w", err)
	}
	return ex, nil
}

// pinnedFor returns the workload's pinned outcomes at seed, or nil when
// the expectations cover another seed.
func pinnedFor(ex expectations, workload string, seed uint64) map[string]outcome {
	if ex.Seed != seed {
		return nil
	}
	return ex.Workloads[workload]
}

// invariants are the checks every election must pass on any seed.
func invariants(o outcome, n int, faultFree bool) error {
	if o.Charged < int64(o.Rounds) {
		return fmt.Errorf("charged rounds %d < rounds %d", o.Charged, o.Rounds)
	}
	if o.Bits < o.Messages {
		return fmt.Errorf("bits %d < messages %d", o.Bits, o.Messages)
	}
	if o.Unique != (len(o.Leaders) == 1) {
		return fmt.Errorf("unique=%t with %d leaders", o.Unique, len(o.Leaders))
	}
	for i, v := range o.Leaders {
		if v < 0 || v >= n || (i > 0 && v <= o.Leaders[i-1]) {
			return fmt.Errorf("leader list %v is not ascending node indices below %d", o.Leaders, n)
		}
	}
	if faultFree && o.Stopped != "" {
		return fmt.Errorf("fault-free election stopped early: %s", o.Stopped)
	}
	return nil
}

// checkElection verifies one election outcome: against its pinned
// outcome when the run's seed is pinned, against the reference outcome of
// another backend when given, and against the invariants always.
func checkElection(e election, got outcome, pinned map[string]outcome, ref *outcome) error {
	if pinned != nil {
		want, ok := pinned[e.label]
		if !ok {
			return errors.New("no pinned outcome for this input")
		}
		if !got.equal(want) {
			return fmt.Errorf("pinned %v, got %v", want, got)
		}
	}
	if ref != nil && !got.equal(*ref) {
		return fmt.Errorf("reference backend gave %v, got %v", *ref, got)
	}
	return invariants(got, e.net.n, faultFree(e))
}

// faultFree reports whether e runs without an active adversary.
func faultFree(e election) bool { return e.adv == nil || e.adv.IsZero() }

// loadBaselineCells returns the baseline artifact's cells at the given
// plan indices of the plan swept from seed.
func loadBaselineCells(seed uint64, index []int) ([]harness.ArtifactCell, error) {
	a, err := harness.ReadArtifactFile(filepath.Join(repoRoot, baselinePath))
	if err != nil {
		return nil, err
	}
	if a.RootSeed != seed {
		return nil, fmt.Errorf("%s was swept from root seed %d, not %d", baselinePath, a.RootSeed, seed)
	}
	cells := make([]harness.ArtifactCell, len(index))
	for i, at := range index {
		if at >= len(a.Cells) {
			return nil, fmt.Errorf("%s has %d cells, the pass needs cell %d", baselinePath, len(a.Cells), at)
		}
		cells[i] = a.Cells[at]
	}
	return cells, nil
}

// checkCell verifies one gate cell: byte-identical to its baseline cell
// when one is given, consistent with itself always.
func checkCell(got harness.ArtifactCell, base *harness.ArtifactCell, trials int) error {
	if base != nil {
		g, err := json.Marshal(got)
		if err != nil {
			return err
		}
		b, err := json.Marshal(*base)
		if err != nil {
			return err
		}
		if string(g) != string(b) {
			return fmt.Errorf("cell differs from the baseline:\n got  %s\n want %s", g, b)
		}
	}
	switch {
	case got.Trials != trials:
		return fmt.Errorf("%d trials, want %d", got.Trials, trials)
	case got.Charged < got.Rounds:
		return fmt.Errorf("mean charged rounds %g < mean rounds %g", got.Charged, got.Rounds)
	case got.Bits < got.Messages:
		return fmt.Errorf("mean bits %g < mean messages %g", got.Bits, got.Messages)
	case got.Successes+got.MultiLeaders+got.ZeroLeaders > got.Trials:
		return fmt.Errorf("%d successes + %d multi + %d zero-leader trials exceed %d trials",
			got.Successes, got.MultiLeaders, got.ZeroLeaders, got.Trials)
	}
	return nil
}

// writeExpectations merges one workload's outcomes into the expectations
// file at path (replacing it when it pins another seed).
func writeExpectations(path, workload string, seed uint64, outs map[string]outcome) error {
	ex := expectations{Seed: seed, Workloads: map[string]map[string]outcome{}}
	if buf, err := os.ReadFile(path); err == nil {
		old, err := parseExpectations(buf)
		if err != nil {
			return err
		}
		if old.Seed == seed && old.Workloads != nil {
			ex.Workloads = old.Workloads
		}
	}
	ex.Workloads[workload] = outs
	buf, err := json.MarshalIndent(ex, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
