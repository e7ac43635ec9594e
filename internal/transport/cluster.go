package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anonlead/internal/graph"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/trace"
)

// Config parameterizes an in-process cluster. Semantics mirror sim.Config
// where the fields overlap, so the two backends are interchangeable
// behind the Runtime interface.
type Config struct {
	// Graph is the topology (required).
	Graph *graph.Graph
	// Seed is the run's root seed. Per-node machine streams are derived
	// exactly as sim.New derives them, which is what makes a cluster run
	// bit-compatible with a simulator run of the same seed.
	Seed uint64
	// CongestBits overrides the per-link slot budget (default: the
	// simulator's 8·⌈log₂ n⌉).
	CongestBits int
	// Transport selects the fabric backend (default ChanTransport{}).
	Transport Transport
	// Trace receives per-node protocol trace events (may be nil).
	Trace trace.Recorder
	// Observer, when non-nil, is invoked after every counted round with
	// the same RoundInfo the simulator emits.
	Observer func(sim.RoundInfo)
}

// Cluster runs one election as real message-passing nodes inside this
// process: one driver goroutine per node over a Transport fabric, with
// the coordinator (the caller's goroutine) releasing rounds and folding
// the nodes' reports into a sim.Ledger. It implements Runtime and
// sim.View, so the registry's Converged/Collect hooks and the public Run
// path drive it exactly like the simulator.
//
// Between Run calls and after a run completes, all drivers are parked
// awaiting the next round, so View reads (machine outputs, halt flags)
// are quiescent and race-free.
type Cluster struct {
	g        *graph.Graph
	name     string
	fabric   *Fabric
	ledger   *sim.Ledger
	drivers  []*driver
	rngs     []rng.RNG
	starts   []chan startMsg
	reports  chan Report
	reps     []Report
	observer func(sim.RoundInfo)
	wg       sync.WaitGroup
	closed   bool

	roundHist *obs.Histogram
}

// localControl adapts the in-process channels to the driver's control
// plane. A closed start channel is the stop signal.
type localControl struct {
	start   chan startMsg
	reports chan<- Report
}

func (c *localControl) waitStart() (startMsg, error) {
	msg, ok := <-c.start
	if !ok {
		return startMsg{stop: true}, nil
	}
	return msg, nil
}

func (c *localControl) report(r Report) error {
	c.reports <- r
	return nil
}

// newWireMetrics resolves the transport counters. When telemetry is off
// the counters are unregistered zero-value instances whose Add is a no-op,
// keeping the disabled path free of registry traffic.
func newWireMetrics(backend string) *wireMetrics {
	if !obs.Enabled() {
		return &wireMetrics{
			framesTx: &obs.Counter{}, framesRx: &obs.Counter{},
			bytesTx: &obs.Counter{}, bytesRx: &obs.Counter{},
		}
	}
	reg := obs.Default()
	return &wireMetrics{
		framesTx: reg.Counter(obs.TransportFramesTx, "backend", backend),
		framesRx: reg.Counter(obs.TransportFramesRx, "backend", backend),
		bytesTx:  reg.Counter(obs.TransportBytesTx, "backend", backend),
		bytesRx:  reg.Counter(obs.TransportBytesRx, "backend", backend),
	}
}

// NewCluster connects the fabric, builds one machine per node via factory
// (with the simulator's exact per-node seed derivation), runs the Init
// pseudo-round, and parks every driver at the round-0 barrier.
func NewCluster(ctx context.Context, cfg Config, factory sim.Factory, codec sim.WireCodec) (*Cluster, error) {
	g := cfg.Graph
	if g == nil || g.N() == 0 {
		return nil, errors.New("transport: config requires a non-empty graph")
	}
	if factory == nil {
		return nil, errors.New("transport: config requires a machine factory")
	}
	if codec == nil {
		return nil, errors.New("transport: protocol has no wire codec")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = ChanTransport{}
	}
	endConnect := obs.Span("transport_connect", tr.Name())
	fabric, err := tr.Connect(ctx, g, cfg.Seed)
	endConnect()
	if err != nil {
		return nil, fmt.Errorf("transport: connect %s: %w", tr.Name(), err)
	}

	n := g.N()
	c := &Cluster{
		g:        g,
		name:     tr.Name(),
		fabric:   fabric,
		ledger:   sim.NewLedger(n, cfg.CongestBits),
		drivers:  make([]*driver, n),
		rngs:     make([]rng.RNG, n),
		starts:   make([]chan startMsg, n),
		reports:  make(chan Report, n),
		reps:     make([]Report, n),
		observer: cfg.Observer,
	}
	if obs.Enabled() {
		c.roundHist = obs.Default().Histogram(
			obs.TransportRoundSeconds, obs.TransportRoundSecondsBounds, "backend", c.name)
	}
	met := newWireMetrics(c.name)
	budget := c.ledger.Metrics().CongestBits
	root := rng.New(cfg.Seed)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		c.rngs[v].Reseed(root.DeriveSeed(uint64(v)))
		st := sim.NewStepper(factory(v, deg, &c.rngs[v]), v, deg, &c.rngs[v], cfg.Trace)
		c.drivers[v] = newDriver(v, st, codec, fabric.Links[v], budget, met)
		c.starts[v] = make(chan startMsg, 1)
	}
	for v := 0; v < n; v++ {
		cp := &localControl{start: c.starts[v], reports: c.reports}
		d := c.drivers[v]
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			d.run(cp)
		}()
	}
	// Init pseudo-round: drivers flush their machines' Init sends and
	// report unprompted; fold the reports like sim.New does (slots
	// charged, no base round).
	if err := c.gather(); err != nil {
		c.Close()
		return nil, err
	}
	FoldRound(c.ledger, g, false, c.reps)
	return c, nil
}

// gather collects exactly one report per node. On the first failed report
// it closes the fabric so drivers still blocked mid-round unblock (and
// fail in turn), then keeps draining — the barrier invariant "one report
// per node per round" holds even on the abort path.
func (c *Cluster) gather() error {
	var fail string
	for i := 0; i < len(c.reps); i++ {
		r := <-c.reports
		if r.Fail != "" && fail == "" {
			fail = fmt.Sprintf("transport: node %d: %s", r.Node, r.Fail)
			c.fabric.Close()
		}
		c.reps[r.Node] = r
	}
	if fail != "" {
		return errors.New(fail)
	}
	return nil
}

// step releases one round to every driver and folds the reports into the
// ledger, mirroring sim.Network.Step's executed-round path.
func (c *Cluster) step() error {
	round := c.ledger.Round()
	var began time.Time
	if c.roundHist != nil {
		began = time.Now()
	}
	for v := range c.starts {
		c.starts[v] <- startMsg{round: round}
	}
	if err := c.gather(); err != nil {
		return err
	}
	FoldRound(c.ledger, c.g, true, c.reps)
	if c.roundHist != nil {
		c.roundHist.Observe(time.Since(began).Seconds())
	}
	if c.observer != nil {
		c.observer(sim.RoundInfo{Round: round, Halted: c.ledger.HaltedCount(), Metrics: c.ledger.Metrics()})
	}
	return nil
}

// RunContext implements Runtime: up to rounds rounds, stopping early on
// global halt, context cancellation, or a transport failure (which, unlike
// the simulator, this backend can experience).
func (c *Cluster) RunContext(ctx context.Context, rounds int) (int, error) {
	endRun := obs.Span("transport_run", c.name)
	defer endRun()
	executed := 0
	for executed < rounds {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		if c.ledger.Done() {
			break
		}
		if err := c.step(); err != nil {
			return executed, err
		}
		executed++
	}
	return executed, nil
}

// RunUntilContext implements Runtime. done is evaluated between rounds,
// when every driver is parked at the barrier, so convergence predicates
// may read machine state without synchronization.
func (c *Cluster) RunUntilContext(ctx context.Context, maxRounds int, done func(completed int) bool) (int, error) {
	endRun := obs.Span("transport_run", c.name)
	defer endRun()
	executed := 0
	for executed < maxRounds {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		if c.ledger.Done() {
			break
		}
		if err := c.step(); err != nil {
			return executed, err
		}
		executed++
		if done(executed) {
			break
		}
	}
	return executed, nil
}

// N implements sim.View.
func (c *Cluster) N() int { return c.g.N() }

// Graph implements sim.View.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Machine implements sim.View. Valid whenever the cluster is quiescent
// (between Run calls or after one returns).
func (c *Cluster) Machine(v int) sim.Machine { return c.drivers[v].stephr.Machine() }

// Halted implements sim.View, reading the ledger's (coordinator-owned)
// halt latch.
func (c *Cluster) Halted(v int) bool { return c.ledger.Halted(v) }

// Crashed implements sim.View; the transport backend has no crash
// adversary.
func (c *Cluster) Crashed(v int) bool { return false }

// AllHalted implements Runtime.
func (c *Cluster) AllHalted() bool { return c.ledger.AllHalted() }

// Metrics implements Runtime.
func (c *Cluster) Metrics() sim.Metrics { return c.ledger.Metrics() }

// Backend names the fabric implementation ("chan", "pipe", "tcp").
func (c *Cluster) Backend() string { return c.name }

// Close stops every driver and tears the fabric down. Idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, ch := range c.starts {
		close(ch)
	}
	// Closing the fabric unblocks any driver still inside a failed round;
	// drivers parked between rounds exit on the closed start channels.
	c.fabric.Close()
	c.wg.Wait()
}
