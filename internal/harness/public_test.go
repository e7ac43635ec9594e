package harness

import (
	"context"
	"reflect"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/spectral"
)

// TestMirrorRoundTrips guards the hand-written field-copy bridge the
// harness uses into the public API: a field present in both mirror
// structs but dropped by the copy function would pass a pure struct-parity
// test while silently zeroing that field in every sweep.
func TestMirrorRoundTrips(t *testing.T) {
	// Adversary spec: internal -> public -> internal must be lossless.
	spec := adversary.Spec{
		Loss: 0.1, CrashFraction: 0.25, CrashBy: 16,
		CrashSchedule: map[int]int{3: 7},
		Churn:         0.05, ChurnPreserve: true,
		DelayProb: 0.5, MaxDelay: 3,
		AdaptiveCrash: 2, AdaptiveWindow: 4, AdaptiveStrikes: 3,
	}
	sv := reflect.ValueOf(spec)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).IsZero() {
			t.Fatalf("test spec leaves field %s zero — set it so the round-trip covers it",
				reflect.TypeOf(spec).Field(i).Name)
		}
	}
	pub := publicAdversary(spec)
	// Every spec field shapes the canonical descriptor, so descriptor
	// equality across the conversion pipeline (public mirror -> internal
	// build input) proves no field was dropped by the copy functions.
	if got, want := pub.Descriptor(), spec.Descriptor(); got != want {
		t.Fatalf("descriptor lost in conversion: %q vs %q", got, want)
	}

}

// TestPublicNetworkMatchesWorkloadGraph pins the graph-derivation
// unification: anonlead.NewNetwork(family, n, seed) must be exactly the
// workload graph behind the sweep cells (same seed labeling), so library
// users can reproduce any artifact cell from the public API alone.
func TestPublicNetworkMatchesWorkloadGraph(t *testing.T) {
	for _, w := range []Workload{
		{Family: "expander", N: 64},
		{Family: "cycle", N: 32},
		{Family: "gnp", N: 48},
	} {
		g, err := w.BuildGraph(9)
		if err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		nw, err := anonlead.NewNetwork(w.Family, w.N, 9)
		if err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		if nw.N() != g.N() || nw.M() != g.M() {
			t.Fatalf("%s: size mismatch public n=%d m=%d vs workload n=%d m=%d",
				w.Family, nw.N(), nw.M(), g.N(), g.M())
		}
		// Same seed → same election transcript is the real pin: run the
		// same trial through both surfaces and compare the accounting.
		prof, err := anonlead.NewNetworkFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nw.Run(nil, anonlead.ProtoFloodMax, anonlead.WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		b, err := prof.Run(nil, anonlead.ProtoFloodMax, anonlead.WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		if a.Messages != b.Messages || a.Bits != b.Bits || a.Rounds != b.Rounds ||
			len(a.Leaders) != len(b.Leaders) {
			t.Fatalf("%s: public network diverged from workload graph:\n%+v\n%+v",
				w.Family, a.Result, b.Result)
		}
	}
}

// TestTrialMatchesPublicRun pins that the harness hands every protocol
// exactly the inputs the public API would: one trial of each harness
// protocol on a small exact-regime cell equals a default-option
// Network.Run of the same registry name at the trial's seed.
func TestTrialMatchesPublicRun(t *testing.T) {
	const seed = 5
	w := Workload{Family: "complete", N: 4}
	opts := TrialOpts{Seed: seed, ProfileMode: spectral.ModeExact}
	anw, prof, err := prepareCell(w, seed, opts.ProfileMode)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := anonlead.NewNetwork(w.Family, w.N, seed)
	if err != nil {
		t.Fatal(err)
	}
	trialSeed := TrialSeed(seed, w, 0)
	for _, p := range Protocols() {
		got, err := runOne(p, anw, prof, opts, trialSeed)
		if err != nil {
			t.Fatalf("%s: harness trial: %v", p, err)
		}
		out, err := nw.Run(context.Background(), string(p), anonlead.WithSeed(trialSeed))
		if err != nil {
			t.Fatalf("%s: public run: %v", p, err)
		}
		want := Trial{
			Leaders: len(out.Leaders),
			Success: out.Unique && out.AllKnow,
			Rounds:  out.Rounds,
			Metrics: out.Metrics,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: harness trial diverged from the public run:\nharness %+v\npublic  %+v", p, got, want)
		}
	}
}
