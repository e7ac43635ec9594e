package core

import (
	"math"

	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// ProtoConfig is the protocol-agnostic bundle of resolved inputs one
// election run hands the registry: the union of every registered
// protocol's tunables, with zero values meaning "protocol default". It is
// the single configuration currency shared by the public anonlead.Run
// path and the experiment harness, which is what makes the two surfaces
// byte-identical — both assemble a ProtoConfig and hand it to the same
// registered builder.
type ProtoConfig struct {
	// TrueN is the actual node count of the simulated graph (outcome
	// judging, revocable stabilization). Always set by the runner.
	TrueN int
	// N is the network size the protocol is told. It differs from TrueN in
	// the knowledge ablation (Dieudonné–Pelc misreporting).
	N int
	// TMix is the lazy-walk mixing time input (ire, explicit, walknotify).
	TMix int
	// Phi is the conductance input (ire, explicit).
	Phi float64
	// Diam is the diameter bound (floodmax, allflood).
	Diam int
	// C scales the analysis constant c (candidate rate, walk and broadcast
	// lengths) for every protocol that has one.
	C float64
	// X overrides the IRE walk count; XFactor scales the automatic one.
	X       int
	XFactor float64
	// MaxID overrides the candidate ID space (default n⁴).
	MaxID uint64
	// BroadcastOnly stops IRE after the cautious-broadcast phase (the
	// Lemma 1 ablation instrument).
	BroadcastOnly bool
	// AnnounceRounds bounds the explicit announcement flood (default n).
	AnnounceRounds int
	// Beta overrides the walknotify tokens per candidate.
	Beta int
	// AllNodes makes every floodmax node a candidate.
	AllNodes bool
	// Epsilon, Xi, Iso, FMult, RMult parameterize revocable election.
	Epsilon float64
	Xi      float64
	Iso     float64
	FMult   float64
	RMult   float64
	// MaxRounds caps an open-ended (revocable) run; 0 selects the default
	// budget (bounded when Faulted, since faults can make convergence
	// unreachable).
	MaxRounds int
	// MaxDelay is the adversary's delivery-jitter bound: fixed round
	// budgets are stretched by it so late packets can drain.
	MaxDelay int
	// Faulted reports that an adversary is active this run.
	Faulted bool
}

// Needs declares which profiled graph quantities a protocol consumes, so
// the runner only computes a (potentially lazy) spectral profile when a
// needed input was not supplied explicitly.
type Needs uint8

const (
	// NeedTMix marks the mixing-time input.
	NeedTMix Needs = 1 << iota
	// NeedPhi marks the conductance input.
	NeedPhi
	// NeedDiam marks the diameter input.
	NeedDiam
)

// Fill sets each profiled input of pc that n declares and the caller left
// zero from the graph's spectral profile. profile is called at most once,
// and only when such an input is missing, so a run whose inputs are all
// explicit never profiles. This is the one fill rule: Network.Run, the
// experiment harness (from its cached cell profile) and the ledist
// coordinator all hand a protocol its inputs through it.
func (n Needs) Fill(pc *ProtoConfig, profile func() (*spectral.Profile, error)) error {
	tmix := n&NeedTMix != 0 && pc.TMix == 0
	phi := n&NeedPhi != 0 && pc.Phi == 0
	diam := n&NeedDiam != 0 && pc.Diam == 0
	if !tmix && !phi && !diam {
		return nil
	}
	p, err := profile()
	if err != nil {
		return err
	}
	if tmix {
		pc.TMix = p.MixingTime
	}
	if phi {
		pc.Phi = p.Conductance
	}
	if diam {
		pc.Diam = p.Diameter
	}
	return nil
}

// Outcome is the unified per-run result a registered protocol's collector
// reads off a finished network. Leaders (and the explicit protocol's
// all-know clause) are judged over surviving nodes only: a crash-stopped
// node cannot claim or learn a leadership it will never act on.
type Outcome struct {
	// Leaders lists surviving node indices that raised the leader flag.
	Leaders []int
	// LeaderID is the elected leader's random ID (0 if none).
	LeaderID uint64
	// AllKnow reports whether every surviving node learned the leader.
	// Vacuously true for protocols without an announcement phase.
	AllKnow bool
	// Parents/Depths describe the announcement BFS tree (explicit only).
	Parents []int
	Depths  []int
	// HasCertificate and the certificate fields carry the revocable
	// leader certificate agreed by the surviving nodes.
	HasCertificate bool
	CertID         uint64
	CertEstimate   uint64
	FinalEstimate  uint64
}

// Runner is a built, ready-to-execute protocol: the machine factory plus
// the execution plan and the outcome collector.
type Runner struct {
	// Factory builds the per-node machines.
	Factory sim.Factory
	// Budget is the fixed round budget (protocol length plus halt slack
	// and adversary jitter). 0 means open-ended: the run is driven by
	// Converged under MaxRounds.
	Budget int
	// CheckEvery is the convergence poll period of an open-ended run.
	CheckEvery int
	// MaxRounds caps an open-ended run.
	MaxRounds int
	// Converged reports stabilization of an open-ended run. It receives a
	// read view instead of the concrete simulator so the same predicate
	// drives the in-memory and real-transport backends.
	Converged func(nw sim.View) bool
	// Collect reads the unified outcome off a finished execution.
	Collect func(nw sim.View) Outcome
}

// Entry is one protocol's registration: its canonical name, optional
// aliases, the profiled inputs it consumes, and its builder.
type Entry struct {
	// Name is the canonical protocol name (the cell identity experiments
	// and artifacts key on).
	Name string
	// Aliases name the same protocol under legacy spellings.
	Aliases []string
	// Info is a one-line human description.
	Info string
	// Needs declares the profiled inputs the builder consumes.
	Needs Needs
	// Build resolves the config into an executable Runner.
	Build func(pc ProtoConfig) (Runner, error)
	// Wire serializes the protocol's payloads for the real-transport
	// backend (nil: the protocol can only run on the in-memory simulator).
	Wire sim.WireCodec
}

var (
	registry []Entry
	byName   = map[string]int{}
)

// Register adds a protocol to the registry. It is called from package
// init functions only (this package registers the paper's protocols,
// internal/baseline the promoted baselines), so lookups need no locking.
// Duplicate names panic: they are programmer errors.
func Register(e Entry) {
	if e.Name == "" || e.Build == nil {
		panic("core: protocol registration requires a name and a builder")
	}
	if _, dup := byName[e.Name]; dup {
		panic("core: duplicate protocol registration " + e.Name)
	}
	byName[e.Name] = len(registry)
	for _, a := range e.Aliases {
		if _, dup := byName[a]; dup {
			panic("core: duplicate protocol alias " + a)
		}
		byName[a] = len(registry)
	}
	registry = append(registry, e)
}

// Lookup resolves a protocol name or alias.
func Lookup(name string) (Entry, bool) {
	i, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registry[i], true
}

// Names lists the canonical protocol names in registration order (the
// paper's protocols first, then the baselines).
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

func init() {
	Register(Entry{
		Name:  "ire",
		Info:  "Irrevocable Leader Election, known n (paper Section 4)",
		Needs: NeedTMix | NeedPhi,
		Build: buildIRE,
		Wire:  wireCodec{},
	})
	Register(Entry{
		Name:  "explicit",
		Info:  "explicit IRE: Section 4 election + announcement flood and BFS tree (Section 3)",
		Needs: NeedTMix | NeedPhi,
		Build: buildExplicit,
		Wire:  wireCodec{},
	})
	Register(Entry{
		Name:  "revocable",
		Info:  "Blind Leader Election with Certificates, unknown n (paper Section 5.2)",
		Build: buildRevocable,
		Wire:  wireCodec{},
	})
}

// ireConfig maps the shared ProtoConfig onto the IRE tunables.
func ireConfig(pc ProtoConfig) IREConfig {
	return IREConfig{
		N: pc.N, TMix: pc.TMix, Phi: pc.Phi, C: pc.C,
		X: pc.X, XFactor: pc.XFactor, MaxID: pc.MaxID,
		BroadcastOnly: pc.BroadcastOnly,
	}
}

func buildIRE(pc ProtoConfig) (Runner, error) {
	cfg := ireConfig(pc)
	p, err := cfg.resolve()
	if err != nil {
		return Runner{}, err
	}
	factory, err := NewIREFactory(cfg)
	if err != nil {
		return Runner{}, err
	}
	return Runner{
		Factory: factory,
		Budget:  p.total + 4 + pc.MaxDelay,
		Collect: collectIRE,
	}, nil
}

func collectIRE(nw sim.View) Outcome {
	out := Outcome{AllKnow: true}
	for v := 0; v < nw.N(); v++ {
		if nw.Crashed(v) {
			continue
		}
		o := nw.Machine(v).(*IREMachine).Output()
		if o.Leader {
			out.Leaders = append(out.Leaders, v)
			out.LeaderID = o.ID
		}
	}
	return out
}

func buildExplicit(pc ProtoConfig) (Runner, error) {
	cfg := ExplicitConfig{IRE: ireConfig(pc), AnnounceRounds: pc.AnnounceRounds}
	p, err := cfg.IRE.resolve()
	if err != nil {
		return Runner{}, err
	}
	factory, err := NewExplicitFactory(cfg)
	if err != nil {
		return Runner{}, err
	}
	announce := cfg.AnnounceRounds
	if announce <= 0 {
		announce = p.n
	}
	return Runner{
		Factory: factory,
		Budget:  p.total + announce + 2 + 4 + pc.MaxDelay,
		Collect: collectExplicit,
	}, nil
}

func collectExplicit(nw sim.View) Outcome {
	n := nw.N()
	out := Outcome{
		AllKnow: true,
		Parents: make([]int, n),
		Depths:  make([]int, n),
	}
	for v := 0; v < n; v++ {
		o := nw.Machine(v).(*ExplicitMachine).Output()
		out.Depths[v] = o.Depth
		if o.ParentPort >= 0 {
			out.Parents[v] = nw.Graph().Neighbor(v, o.ParentPort)
		} else {
			out.Parents[v] = -1
		}
		if nw.Crashed(v) {
			continue // only survivors claim or learn leadership
		}
		if o.IRE.Leader {
			out.Leaders = append(out.Leaders, v)
			out.LeaderID = o.IRE.ID
		}
		if !o.KnowsLeader {
			out.AllKnow = false
		}
	}
	return out
}

func buildRevocable(pc ProtoConfig) (Runner, error) {
	cfg := RevocableConfig{
		Epsilon: pc.Epsilon, Xi: pc.Xi, Isoperimetric: pc.Iso,
		FMult: pc.FMult, RMult: pc.RMult,
	}
	factory, err := NewRevocableFactory(cfg)
	if err != nil {
		return Runner{}, err
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.5
	}
	maxRounds := pc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200_000_000
		if pc.Faulted {
			// Faults can make convergence unreachable (e.g. the would-be
			// leader crash-stops); the fault-free budget would be an
			// effective hang, so adversarial runs get a bounded one.
			maxRounds = 1_000_000
		}
	}
	return Runner{
		Factory:    factory,
		CheckEvery: 64,
		MaxRounds:  maxRounds,
		Converged:  func(nw sim.View) bool { return revocableConverged(nw, eps) },
		Collect:    collectRevocable,
	}, nil
}

// revocableConverged is the Theorem 3 stabilization predicate, evaluated
// over surviving nodes (a crashed node can never choose, so including it
// would run every faulted trial to the round cap). The reference output
// comes from the lowest-index survivor.
func revocableConverged(nw sim.View, eps float64) bool {
	n := nw.N()
	ref := -1
	for v := 0; v < n; v++ {
		if !nw.Crashed(v) {
			ref = v
			break
		}
	}
	if ref < 0 {
		return false // everyone crashed; the run can only time out
	}
	first := nw.Machine(ref).(*RevocableMachine).Output()
	if !first.Chosen || first.LeaderK == 0 {
		return false
	}
	if math.Pow(float64(first.EstimateK), 1+eps) <= 4*float64(n) {
		return false
	}
	for v := ref + 1; v < n; v++ {
		if nw.Crashed(v) {
			continue
		}
		o := nw.Machine(v).(*RevocableMachine).Output()
		if !o.Chosen || o.LeaderK != first.LeaderK || o.LeaderID != first.LeaderID {
			return false
		}
	}
	return true
}

func collectRevocable(nw sim.View) Outcome {
	out := Outcome{AllKnow: true}
	for v := 0; v < nw.N(); v++ {
		if nw.Crashed(v) {
			continue
		}
		o := nw.Machine(v).(*RevocableMachine).Output()
		if !out.HasCertificate {
			out.HasCertificate = true
			out.CertID, out.CertEstimate = o.LeaderID, o.LeaderK
			out.FinalEstimate = o.EstimateK
			out.LeaderID = o.LeaderID
		}
		if o.Leader {
			out.Leaders = append(out.Leaders, v)
		}
	}
	return out
}
