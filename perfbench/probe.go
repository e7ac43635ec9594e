package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// stepMeter accumulates one node's machine and write time. While a round
// runs only the node's own goroutine writes it; the coordinator reads and
// resets the per-round fields between rounds, after the node reported.
type stepMeter struct {
	init  time.Duration // in Init
	busy  time.Duration // in Step
	steps int64
	// round and write are this round's Step and WriteFrame time (the
	// node's share of a transport round's critical path).
	round, write time.Duration
	// writeBusy, frames and bytes total the node's WriteFrame calls.
	writeBusy     time.Duration
	frames, bytes int64
	_             [64]byte // keeps nodes' meters on separate cache lines
}

// probeMachine wraps a protocol machine and times its Init and Step.
type probeMachine struct {
	inner sim.Machine
	m     *stepMeter
}

func (p *probeMachine) Init(ctx *sim.Context) {
	t := time.Now()
	p.inner.Init(ctx)
	p.m.init += time.Since(t)
}

func (p *probeMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	t := time.Now()
	p.inner.Step(ctx, inbox)
	d := time.Since(t)
	p.m.busy += d
	p.m.round += d
	p.m.steps++
}

// probes holds one election's wrapped machines and their meters. Both are
// allocated before the election, so wrapping allocates nothing inside it.
type probes struct {
	machines []probeMachine
	meters   []stepMeter
	build    time.Duration // spent in the protocol's factory
}

func newProbes(n int) *probes {
	return &probes{machines: make([]probeMachine, n), meters: make([]stepMeter, n)}
}

// factory wraps the protocol's factory. Both backends call it from the
// goroutine that builds the network.
func (p *probes) factory(inner sim.Factory) sim.Factory {
	return func(node, degree int, r *rng.RNG) sim.Machine {
		t := time.Now()
		m := inner(node, degree, r)
		p.build += time.Since(t)
		p.machines[node] = probeMachine{inner: m, m: &p.meters[node]}
		return &p.machines[node]
	}
}

// totals sums the meters: Init time, Step time and Step calls.
func (p *probes) totals() (init, step time.Duration, steps int64) {
	for i := range p.meters {
		m := &p.meters[i]
		init += m.init
		step += m.busy
		steps += m.steps
	}
	return init, step, steps
}

// critical returns the slowest node's Step plus WriteFrame time of the
// round just finished and resets every node's per-round figures.
func (p *probes) critical() time.Duration {
	var worst time.Duration
	for i := range p.meters {
		m := &p.meters[i]
		if c := m.round + m.write; c > worst {
			worst = c
		}
		m.round, m.write = 0, 0
	}
	return worst
}

// view hands the registry's Converged and Collect hooks the unwrapped
// machines, which they type-assert to the protocol's own machine type.
type view struct{ sim.View }

func (v view) Machine(i int) sim.Machine {
	m := v.View.Machine(i)
	if p, ok := m.(*probeMachine); ok {
		return p.inner
	}
	return m
}

// probeTransport wraps a transport: it times Connect and wraps every link
// of the fabric so frame writes are timed and counted and every frame's
// wait between its write and its read is measured.
type probeTransport struct {
	inner    transport.Transport
	meters   []stepMeter
	connect  time.Duration
	readWait atomic.Int64 // ns, summed over all frames read
}

func (t *probeTransport) Name() string { return t.inner.Name() }

func (t *probeTransport) Connect(ctx context.Context, g *graph.Graph, seed uint64) (*transport.Fabric, error) {
	start := time.Now()
	fab, err := t.inner.Connect(ctx, g, seed)
	t.connect += time.Since(start)
	if err != nil {
		return nil, err
	}
	// One queue of write times per directed edge: the endpoint (v, p)
	// pushes to queue off[v]+p and its peer pops from it.
	off, rev := g.EdgeOffsets(), g.ReversePorts()
	queues := make([]frameQueue, off[g.N()])
	for v, ports := range fab.Links {
		for p, l := range ports {
			if l == nil {
				continue
			}
			w := g.Neighbor(v, p)
			q := int(rev[off[v]+p])
			fab.Links[v][p] = &probeLink{inner: l, m: &t.meters[v], t: t,
				out: &queues[off[v]+p], in: &queues[off[w]+q]}
		}
	}
	return fab, nil
}

// frameQueue holds the write times of the frames in flight on one
// directed edge, oldest first.
type frameQueue struct {
	mu    sync.Mutex
	times []time.Time
	head  int
}

func (q *frameQueue) push(t time.Time) {
	q.mu.Lock()
	q.times = append(q.times, t)
	q.mu.Unlock()
}

func (q *frameQueue) pop() (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.times) {
		return time.Time{}, false
	}
	t := q.times[q.head]
	q.head++
	if q.head == len(q.times) {
		q.times, q.head = q.times[:0], 0
	}
	return t, true
}

// probeLink is a node's link endpoint with timed frame I/O. Its writer is
// the node's driver goroutine (so the node's meter needs no locking); its
// reader is the port's reader goroutine.
type probeLink struct {
	inner   transport.Link
	m       *stepMeter
	t       *probeTransport
	out, in *frameQueue
}

func (l *probeLink) WriteFrame(f transport.Frame) error {
	start := time.Now()
	l.out.push(start) // before the write: the peer may read the frame at once
	err := l.inner.WriteFrame(f)
	d := time.Since(start)
	l.m.write += d
	l.m.writeBusy += d
	l.m.frames++
	l.m.bytes += int64(len(f.Body))
	return err
}

func (l *probeLink) Flush() error { return l.inner.Flush() }

func (l *probeLink) ReadFrame() (transport.Frame, error) {
	f, err := l.inner.ReadFrame()
	if err == nil {
		if written, ok := l.in.pop(); ok {
			l.t.readWait.Add(int64(time.Since(written)))
		}
	}
	return f, err
}

func (l *probeLink) Close() error { return l.inner.Close() }
