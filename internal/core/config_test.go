package core

import (
	"errors"
	"math"
	"testing"

	"anonlead/internal/spectral"
)

func TestIREConfigValidation(t *testing.T) {
	valid := IREConfig{N: 16, TMix: 10, Phi: 0.5}
	if _, err := NewIREFactory(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []IREConfig{
		{N: 1, TMix: 10, Phi: 0.5},
		{N: 16, TMix: 0, Phi: 0.5},
		{N: 16, TMix: 10, Phi: 0},
		{N: 16, TMix: 10, Phi: -0.1},
		{N: 16, TMix: 10, Phi: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewIREFactory(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestIREResolvedDefaults(t *testing.T) {
	p, err := IREConfig{N: 64, TMix: 20, Phi: 0.25}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if p.c != DefaultIREC {
		t.Fatalf("default c %v", p.c)
	}
	wantProb := DefaultIREC * math.Log(64) / 64
	if math.Abs(p.candProb-wantProb) > 1e-12 {
		t.Fatalf("candProb %v want %v", p.candProb, wantProb)
	}
	if p.maxID != 64*64*64*64 {
		t.Fatalf("maxID %d want n^4", p.maxID)
	}
	wantX := int(math.Ceil(math.Sqrt(64 * math.Log(64) / (0.25 * 20))))
	if p.x != wantX {
		t.Fatalf("x %d want %d", p.x, wantX)
	}
	if p.capSize < 2 || p.capSize > 64 {
		t.Fatalf("capSize %d out of [2, n]", p.capSize)
	}
	if p.total <= p.bcastLen+p.walkLen+p.ccLen {
		t.Fatalf("total %d too small", p.total)
	}
}

func TestIREResolveOverrides(t *testing.T) {
	p, err := IREConfig{N: 64, TMix: 20, Phi: 0.25, C: 1, X: 7, MaxID: 1000}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if p.c != 1 || p.x != 7 || p.maxID != 1000 {
		t.Fatalf("overrides ignored: %+v", p)
	}
}

func TestIREXFactorScales(t *testing.T) {
	base, _ := IREConfig{N: 128, TMix: 40, Phi: 0.2}.resolve()
	doubled, _ := IREConfig{N: 128, TMix: 40, Phi: 0.2, XFactor: 2}.resolve()
	if doubled.x < 2*base.x-1 || doubled.x > 2*base.x+1 {
		t.Fatalf("XFactor=2 gave x=%d (base %d)", doubled.x, base.x)
	}
}

func TestIREBroadcastOnlySchedule(t *testing.T) {
	p, err := IREConfig{N: 32, TMix: 10, Phi: 0.3, BroadcastOnly: true}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !p.broadcastOnly {
		t.Fatal("flag lost")
	}
	if p.total != p.bcastLen+2 {
		t.Fatalf("broadcast-only total %d want %d", p.total, p.bcastLen+2)
	}
}

func TestRevocableConfigValidation(t *testing.T) {
	if _, err := NewRevocableFactory(RevocableConfig{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	bad := []RevocableConfig{
		{Epsilon: -0.5},
		{Epsilon: 1.5},
		{Xi: 1.5},
		{Xi: -0.2},
		{Isoperimetric: -1},
		{FMult: -1},
		{RMult: -0.5},
	}
	for i, cfg := range bad {
		if _, err := NewRevocableFactory(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRevocableScheduleFunctions(t *testing.T) {
	p, err := RevocableConfig{Epsilon: 0.5}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	// f, r, dissemination lengths grow with k.
	prevF, prevR, prevD := 0, 0, 0
	for k := uint64(2); k <= 64; k *= 2 {
		f, r, d := p.fOf(k), p.rOf(k), p.dissOf(k)
		if f <= prevF || r <= prevR || d <= prevD {
			t.Fatalf("schedule not increasing at k=%d: f=%d r=%d d=%d", k, f, r, d)
		}
		prevF, prevR, prevD = f, r, d
		// τ(k) in (0, 1); p(k) in (0, 1).
		if tau := p.tauOf(k); tau <= 0 || tau >= 1 {
			t.Fatalf("tau(%d) = %v", k, tau)
		}
		if pw := p.pOf(k); pw <= 0 || pw >= 1 {
			t.Fatalf("p(%d) = %v", k, pw)
		}
		// ID range must cover k^{4(1+ε)}.
		if got := p.idRangeOf(k); float64(got) < math.Pow(float64(k), 4*1.5) {
			t.Fatalf("idRange(%d) = %d below k^6", k, got)
		}
	}
}

func TestRevocableKnownIsoShortensDiffusion(t *testing.T) {
	blind, _ := RevocableConfig{Epsilon: 0.5}.resolve()
	iso, _ := RevocableConfig{Epsilon: 0.5, Isoperimetric: 2}.resolve()
	for k := uint64(4); k <= 32; k *= 2 {
		if iso.rOf(k) >= blind.rOf(k) {
			t.Fatalf("known-iso r(%d)=%d not shorter than blind %d", k, iso.rOf(k), blind.rOf(k))
		}
	}
}

func TestRevocableCalibrationMultipliers(t *testing.T) {
	full, _ := RevocableConfig{Epsilon: 0.5}.resolve()
	scaled, _ := RevocableConfig{Epsilon: 0.5, FMult: 0.5, RMult: 0.1}.resolve()
	k := uint64(16)
	if scaled.fOf(k) > full.fOf(k)/2+1 {
		t.Fatalf("FMult not applied: %d vs %d", scaled.fOf(k), full.fOf(k))
	}
	if scaled.rOf(k) > full.rOf(k)/5 {
		t.Fatalf("RMult not applied: %d vs %d", scaled.rOf(k), full.rOf(k))
	}
}

func TestChanOfAvoidsWalkChannel(t *testing.T) {
	if chanOf(uint64(walkChannel)) == walkChannel {
		t.Fatal("chanOf collided with the walk channel")
	}
	if chanOf(7) != 7 {
		t.Fatalf("chanOf(7) = %d", chanOf(7))
	}
}

// TestNeedsFill pins the one profiled-input fill rule: only inputs the
// protocol declares and the caller left zero are filled, and the profile
// is computed only when at least one of them is missing.
func TestNeedsFill(t *testing.T) {
	prof := &spectral.Profile{MixingTime: 7, Conductance: 0.25, Diameter: 3}
	all := NeedTMix | NeedPhi | NeedDiam
	cases := []struct {
		name  string
		needs Needs
		in    ProtoConfig
		want  ProtoConfig
		calls int
	}{
		{"nothing declared", 0, ProtoConfig{N: 8}, ProtoConfig{N: 8}, 0},
		{"all declared, all zero", all, ProtoConfig{}, ProtoConfig{TMix: 7, Phi: 0.25, Diam: 3}, 1},
		{"all declared, all set", all, ProtoConfig{TMix: 1, Phi: 0.5, Diam: 9}, ProtoConfig{TMix: 1, Phi: 0.5, Diam: 9}, 0},
		{"set inputs kept", NeedTMix | NeedPhi, ProtoConfig{TMix: 2}, ProtoConfig{TMix: 2, Phi: 0.25}, 1},
		{"undeclared zeros left", NeedDiam, ProtoConfig{}, ProtoConfig{Diam: 3}, 1},
		{"undeclared set inputs kept", NeedTMix, ProtoConfig{Diam: 5}, ProtoConfig{TMix: 7, Diam: 5}, 1},
	}
	for _, c := range cases {
		calls := 0
		pc := c.in
		err := c.needs.Fill(&pc, func() (*spectral.Profile, error) {
			calls++
			return prof, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if pc != c.want || calls != c.calls {
			t.Errorf("%s: got %+v after %d profile calls, want %+v after %d", c.name, pc, calls, c.want, c.calls)
		}
	}

	boom := errors.New("profile failed")
	pc := ProtoConfig{}
	if err := NeedDiam.Fill(&pc, func() (*spectral.Profile, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("profile error not returned: %v", err)
	}
}
