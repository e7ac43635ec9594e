package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"anonlead/internal/core"
	"anonlead/internal/harness"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// gateSweep is the gate-sweep workload: the quick regression-gate plan,
// harness.SweepsPlan(quick, 0, planSeed), run through a one-worker
// harness.Orchestrator from a cold profile cache, as every lebench run
// pays. A pass leaves out the plan's three heaviest cells (see heavy).
type gateSweep struct {
	specs []harness.CellSpec
	index []int                 // plan index of each spec
	kinds []harness.SectionKind // plan section of each spec
	nets  map[netKey]*network
	base  []harness.ArtifactCell // baseline cell of each spec
}

// planSeed is the root seed of the swept plan: the baseline's, so that a
// pass sweeps the regression gate itself and every cell is checked byte
// for byte against it. The run's seed is not used: another root seed
// would change the cells' work, and with it the run's figures, from seed
// to seed.
const planSeed = defaultSeed

// netKey identifies a profiled network of the pass.
type netKey struct {
	w    harness.Workload
	mode spectral.Mode
}

// heavy reports the cells a pass leaves out: IRE and walknotify on the
// 96-node cycle and revocable election on the 6-node complete graph. They
// take 29 of the full plan's 44 seconds on two cores, so with them a
// single pass would not fit a run.
func heavy(s harness.CellSpec) bool {
	w := s.Workload
	return (w.Family == "cycle" && w.N == 96) || (s.Protocol == harness.ProtoRevocable && w.N == 6)
}

func (g *gateSweep) setup(uint64) (setupCost, error) {
	var cost setupCost
	g.specs, g.index, g.kinds = nil, nil, nil
	g.nets = make(map[netKey]*network)
	i := 0
	for _, sec := range harness.SweepsPlan(true, 0, planSeed).Sections {
		for _, s := range sec.Specs {
			at := i
			i++
			if heavy(s) {
				continue
			}
			if s.Opts.Epochs != nil || s.Opts.Parallel || s.Opts.Scheduler != sim.Sequential {
				return setupCost{}, fmt.Errorf("plan cell %d: only sequential single-election cells can be re-driven", at)
			}
			g.specs = append(g.specs, s)
			g.index = append(g.index, at)
			g.kinds = append(g.kinds, sec.Kind)
			k := netKey{s.Workload, s.Opts.ProfileMode.Resolve(s.Workload.N)}
			if _, ok := g.nets[k]; ok {
				continue
			}
			nw, err := buildNetwork(s.Workload.Family, s.Workload.N, s.Opts.Seed, k.mode, &cost)
			if err != nil {
				return setupCost{}, err
			}
			g.nets[k] = nw
		}
	}
	base, err := loadBaselineCells(planSeed, g.index)
	if err != nil {
		return setupCost{}, err
	}
	g.base = base
	return cost, nil
}

// sweep runs one harness pass from a cold profile cache, one cell per
// Orchestrator call so that a failing cell fails alone, and calls onCell
// with each cell's index, wall time and CPU time.
func (g *gateSweep) sweep(onCell func(i int, wall, cpu time.Duration)) ([]harness.Cell, []error) {
	harness.ResetProfileCache()
	o := harness.Orchestrator{Workers: 1}
	cells := make([]harness.Cell, len(g.specs))
	errs := make([]error, len(g.specs))
	for i := range g.specs {
		start, cpu := time.Now(), cpuTime()
		out, err := o.RunSweep(g.specs[i : i+1])
		onCell(i, time.Since(start), cpuTime()-cpu)
		if err != nil {
			errs[i] = err
			continue
		}
		cells[i] = out[0]
	}
	return cells, errs
}

// verifyCells checks a pass's cells against the baseline and the cell
// invariants.
func (g *gateSweep) verifyCells(t *tally, cells []harness.Cell, errs []error) {
	o := harness.Orchestrator{Workers: 1}
	for i, c := range cells {
		label := fmt.Sprintf("plan cell %d", g.index[i])
		if errs[i] != nil {
			t.check(label, errs[i])
			continue
		}
		ac := harness.NewArtifact(o, g.specs[i:i+1], []harness.Cell{c}, 0).Cells[0]
		trials := g.specs[i].Opts.Trials
		if trials < 1 {
			trials = 1
		}
		t.check(label, checkCell(ac, &g.base[i], trials))
	}
}

// count adds a pass's trials and messages to t.
func count(t *tally, cells []harness.Cell) {
	for _, c := range cells {
		t.elections += int64(c.Trials)
		t.messages += int64(math.Round(c.Messages * float64(c.Trials)))
	}
}

func (g *gateSweep) measure(seconds float64) (tally, error) {
	var t tally
	start := time.Now()
	for len(t.passes) == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		pass := startPass()
		cells, errs := g.sweep(func(_ int, _, cpu time.Duration) {
			t.ops = append(t.ops, ms(cpu))
		})
		pass.stop(&t)
		count(&t, cells)
		g.verifyCells(&t, cells, errs)
	}
	return t, nil
}

// trialConfig resolves a cell's protocol inputs from its profile exactly
// as the harness's trial runner does.
func trialConfig(s harness.CellSpec, nw *network) (core.ProtoConfig, error) {
	presumed := nw.n
	if s.Opts.PresumedN > 0 {
		presumed = s.Opts.PresumedN
	}
	prof := nw.prof
	switch s.Protocol {
	case harness.ProtoIRE, harness.ProtoExplicit:
		cfg := s.Opts.IRE
		cfg.N = presumed
		if cfg.TMix == 0 {
			cfg.TMix = prof.MixingTime
		}
		if cfg.Phi == 0 {
			cfg.Phi = prof.Conductance
		}
		return core.ProtoConfig{N: cfg.N, TMix: cfg.TMix, Phi: cfg.Phi, C: cfg.C,
			X: cfg.X, XFactor: cfg.XFactor, MaxID: cfg.MaxID, BroadcastOnly: cfg.BroadcastOnly}, nil
	case harness.ProtoFlood, harness.ProtoAllFlood:
		return core.ProtoConfig{N: presumed, Diam: prof.Diameter, AllNodes: s.Protocol == harness.ProtoAllFlood}, nil
	case harness.ProtoWalkNotify:
		return core.ProtoConfig{N: presumed, TMix: prof.MixingTime}, nil
	case harness.ProtoRevocable:
		cfg := s.Opts.Revocable
		if s.Opts.RevocableUseProfileIso && cfg.Isoperimetric == 0 {
			cfg.Isoperimetric = prof.Isoperim
		}
		return core.ProtoConfig{Epsilon: cfg.Epsilon, Xi: cfg.Xi, Iso: cfg.Isoperimetric,
			FMult: cfg.FMult, RMult: cfg.RMult, MaxRounds: s.Opts.RevocableMaxRounds}, nil
	}
	return core.ProtoConfig{}, fmt.Errorf("unknown protocol %q", s.Protocol)
}

// trials expands spec i into its elections, seeded as the harness seeds
// them.
func (g *gateSweep) trials(i int) ([]election, error) {
	s := g.specs[i]
	nw := g.nets[netKey{s.Workload, s.Opts.ProfileMode.Resolve(s.Workload.N)}]
	pc, err := trialConfig(s, nw)
	if err != nil {
		return nil, err
	}
	n := s.Opts.Trials
	if n < 1 {
		n = 1
	}
	out := make([]election, n)
	for k := range out {
		out[k] = election{
			label: fmt.Sprintf("plan cell %d trial %d", g.index[i], k),
			proto: string(s.Protocol),
			net:   nw,
			seed:  harness.TrialSeed(s.Opts.Seed, s.Workload, k),
			pc:    pc,
			adv:   s.Opts.Adversary,
		}
	}
	return out, nil
}

func (g *gateSweep) traced(seconds float64, rec *recorder, lt *layerTotals) (tally, error) {
	ctx := context.Background()
	var t tally
	tr := &tracer{rec: rec, lt: lt}
	gc := gcCPUSeconds()
	start := time.Now()
	for len(t.passes) == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		pass := startPass()

		// The harness pass itself, split by plan section.
		passID := rec.open("harness.pass", -1, -1)
		type section struct {
			first, last time.Time
			busy        time.Duration
		}
		sections := make(map[harness.SectionKind]*section)
		var order []harness.SectionKind
		began := time.Now()
		cells, errs := g.sweep(func(i int, d, _ time.Duration) {
			now := time.Now()
			s, ok := sections[g.kinds[i]]
			if !ok {
				s = &section{first: now.Add(-d)}
				sections[g.kinds[i]] = s
				order = append(order, g.kinds[i])
			}
			s.last = now
			s.busy += d
		})
		artStart := time.Now()
		art := harness.NewArtifact(harness.Orchestrator{Workers: 1}, g.specs, cells, artStart.Sub(began))
		_, jerr := art.JSON()
		artEnd := time.Now()
		for _, kind := range order {
			s := sections[kind]
			rec.fold("harness.section."+string(kind), passID, -1, s.first, s.last, s.busy, 1)
			lt.add("harness.section_s."+string(kind), s.busy.Seconds())
		}
		rec.fold("harness.artifact", passID, -1, artStart, artEnd, artEnd.Sub(artStart), 1)
		rec.close(passID)
		lt.add("harness.artifact_s", artEnd.Sub(artStart).Seconds())
		g.verifyCells(&t, cells, errs)
		if jerr != nil {
			t.check("gate artifact", jerr)
		}

		// Every trial again, untraced through the public Run path and
		// traced through the re-driver; the two must agree.
		for i := range g.specs {
			es, err := g.trials(i)
			if err != nil {
				return t, err
			}
			for _, e := range es {
				began := time.Now()
				plain, err := runPublic(ctx, e)
				t.plainWall += time.Since(began)
				t.plainElections++
				if err != nil {
					t.check(e.label, err)
					continue
				}
				began = time.Now()
				got, err := tr.runSim(e)
				t.tracedWall += time.Since(began)
				t.tracedElections++
				t.elections++
				t.messages += got.Messages
				if err == nil && !got.equal(plain) {
					err = fmt.Errorf("traced %v, untraced %v", got, plain)
				}
				if err == nil {
					err = invariants(got, e.net.n, faultFree(e))
				}
				t.check(e.label+" (traced)", err)
			}
		}
		pass.stop(&t)
	}
	lt.add("runtime.gc_cpu_s", gcCPUSeconds()-gc)
	return t, nil
}
