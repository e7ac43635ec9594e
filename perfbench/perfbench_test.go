package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/spectral"
)

func TestMain(m *testing.M) {
	repoRoot = ".." // tests run in perfbench/
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		values []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{1, 2, 3, 4, 5}, 50, 3},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{0, 10}, 90, 9},
		{[]float64{3, 1, 2}, 0, 1},
		{[]float64{3, 1, 2}, 100, 3},
	}
	for _, c := range cases {
		s := append([]float64(nil), c.values...)
		sort.Float64s(s)
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.values, c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// testElection builds one election input on a fresh network.
func testElection(t *testing.T, proto, family string, n int, pc core.ProtoConfig) election {
	t.Helper()
	var cost setupCost
	nw, err := buildNetwork(family, n, 7, spectral.ModeAuto, &cost)
	if err != nil {
		t.Fatal(err)
	}
	if pc == (core.ProtoConfig{}) {
		pc = defaultConfig(proto, nw)
	}
	return election{label: proto + "/" + family, proto: proto, net: nw, seed: 11, pc: pc}
}

// TestWrappersPreserveOutcomes re-drives every protocol the workloads use
// through the probing wrappers and requires the untraced outcome.
func TestWrappersPreserveOutcomes(t *testing.T) {
	ctx := context.Background()
	lossy := adversary.Spec{Loss: 0.05}
	elections := []election{
		testElection(t, "ire", "expander", 64, core.ProtoConfig{}),
		testElection(t, "explicit", "expander", 32, core.ProtoConfig{}),
		testElection(t, "walknotify", "cycle", 16, core.ProtoConfig{}),
		testElection(t, "floodmax", "torus", 64, core.ProtoConfig{}),
		testElection(t, "allflood", "complete", 32, core.ProtoConfig{}),
		testElection(t, "revocable", "complete", 4, core.ProtoConfig{Iso: 2}),
	}
	faulty := testElection(t, "ire", "expander", 64, core.ProtoConfig{})
	faulty.adv = &lossy
	elections = append(elections, faulty)

	tr := &tracer{rec: newRecorder(), lt: newLayerTotals()}
	for _, e := range elections {
		want, err := runPublic(ctx, e)
		if err != nil {
			t.Fatalf("%s: %v", e.label, err)
		}
		got, err := tr.runSim(e)
		if err != nil {
			t.Fatalf("%s traced: %v", e.label, err)
		}
		if !got.equal(want) {
			t.Errorf("%s: traced simulator run %v, untraced %v", e.label, got, want)
		}
		if e.adv != nil {
			continue
		}
		want, err = runPublic(ctx, e, anonlead.WithTransport(anonlead.TransportChan))
		if err != nil {
			t.Fatalf("%s over chan: %v", e.label, err)
		}
		got, err = tr.runChan(ctx, e)
		if err != nil {
			t.Fatalf("%s traced over chan: %v", e.label, err)
		}
		if !got.equal(want) {
			t.Errorf("%s: traced chan run %v, untraced %v", e.label, got, want)
		}
	}
	if tr.lt.sums["sim.node_steps"] == 0 || tr.lt.sums["transport.frames"] == 0 {
		t.Errorf("wrappers counted nothing: %v", tr.lt.sums)
	}
}

func TestVerifierCatchesPerturbedCell(t *testing.T) {
	cells, err := loadBaselineCells(defaultSeed, []int{0, 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		base := c
		if err := checkCell(c, &base, c.Trials); err != nil {
			t.Fatalf("unperturbed cell rejected: %v", err)
		}
		bad := c
		bad.Messages++
		if checkCell(bad, &base, c.Trials) == nil {
			t.Error("a cell with one more message passed verification")
		}
		bad = c
		bad.Successes--
		if checkCell(bad, &base, c.Trials) == nil {
			t.Error("a cell with one success less passed verification")
		}
		bad = c
		bad.Bits = bad.Messages - 1
		if checkCell(bad, nil, c.Trials) == nil {
			t.Error("a cell with fewer bits than messages passed the invariants")
		}
	}
}

func TestVerifierCatchesPerturbedOutcome(t *testing.T) {
	w := newFloodScale()
	w.inputs = 1
	if _, err := w.setup(defaultSeed); err != nil {
		t.Fatal(err)
	}
	if w.pinned == nil {
		t.Fatal("no pinned flood-scale outcomes at the default seed")
	}
	e := w.elections[0]
	got, err := runPublic(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkElection(e, got, w.pinned, nil); err != nil {
		t.Fatalf("unperturbed outcome rejected: %v", err)
	}
	perturb := []func(o *outcome){
		func(o *outcome) { o.Messages++ },
		func(o *outcome) { o.Charged++ },
		func(o *outcome) { o.Leaders = []int{o.Leaders[0] + 1} },
		func(o *outcome) { o.Rounds-- },
	}
	for i, p := range perturb {
		bad := got
		bad.Leaders = append([]int(nil), got.Leaders...)
		p(&bad)
		if checkElection(e, bad, w.pinned, nil) == nil {
			t.Errorf("perturbation %d passed the pinned check", i)
		}
		if checkElection(e, bad, nil, &got) == nil {
			t.Errorf("perturbation %d passed the reference check", i)
		}
	}
	unpinned := got
	unpinned.Bits = unpinned.Messages - 1
	if checkElection(e, unpinned, nil, nil) == nil {
		t.Error("bits < messages passed the invariants")
	}
	unpinned = got
	unpinned.Unique = false
	if checkElection(e, unpinned, nil, nil) == nil {
		t.Error("one leader without unique passed the invariants")
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the reported metrics in
// step.
func TestBenchmarkManifest(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("manifest workloads %v, program %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// TestRunPrintsEveryMetric runs the smallest workload untraced and traced
// and checks the result line.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "transport-chan", "--seconds", "0.01", "--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.Name, m)
			}
		}
	}
}
