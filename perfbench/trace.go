package main

import (
	"time"
)

// span is one recorded interval. A plain span covers one call; a folded
// span stands for many short calls of one layer inside its parent (every
// machine step of an election, say): Start and End bound them, Busy is
// their summed duration and Count their number. Recording each such call
// separately would cost more than the calls themselves.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`   // -1 at a root
	Election int    `json:"election"` // -1 outside any election
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder was created
	End      int64  `json:"end_ns"`
	Busy     int64  `json:"busy_ns"`
	Count    int64  `json:"count"`
}

// recorder keeps a traced run's spans in memory; the run writes them out
// once, when it ends. It is used from one goroutine.
type recorder struct {
	epoch     time.Time
	spans     []span
	elections int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// at converts a wall-clock instant into recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// open starts a plain span and returns its id.
func (r *recorder) open(name string, parent, election int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Election: election, Name: name,
		Start: r.at(time.Now()), Count: 1})
	return id
}

// close ends the plain span id.
func (r *recorder) close(id int) {
	s := &r.spans[id]
	s.End = r.at(time.Now())
	s.Busy = s.End - s.Start
}

// fold records a folded span and returns its id.
func (r *recorder) fold(name string, parent, election int, start, end time.Time, busy time.Duration, count int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Election: election, Name: name,
		Start: r.at(start), End: r.at(end), Busy: int64(busy), Count: count})
	return id
}

// election allocates the next election id.
func (r *recorder) election() int {
	r.elections++
	return r.elections - 1
}

// setupSpans records the median set-up's graph-build and profile time as
// folded spans. Set-up ran before the recorder existed, so their interval
// is nominal: it ends when they are recorded.
func (r *recorder) setupSpans(c setupCost) {
	now := time.Now()
	root := r.fold("setup", -1, -1, now.Add(-c.total()), now, c.total(), 1)
	r.fold("graph.build", root, -1, now.Add(-c.total()), now.Add(-c.profile), c.build, 1)
	r.fold("spectral.profile", root, -1, now.Add(-c.profile), now, c.profile, 1)
}

// selfTimes returns, per span name, the summed self time: each span's
// busy time minus the busy time of its children. Where children ran in
// parallel (the per-node work of a transport round) the difference can
// be negative; the transport metrics use the critical path instead.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.Busy - child[i])
	}
	return self
}

// layerTotals accumulates a traced run's per-layer figures.
type layerTotals struct {
	// sums are totals over all passes, reported per pass.
	sums map[string]float64
	// global values are reported as they are (set-up figures).
	global map[string]float64
	// allocs and msgs are heap allocations and messages per protocol
	// layer, reported as their ratio.
	allocs, msgs map[string]float64
	// newAllocs over newCalls is the mean allocation count of sim.New.
	newAllocs, newCalls float64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{
		sums:   make(map[string]float64),
		global: make(map[string]float64),
		allocs: make(map[string]float64),
		msgs:   make(map[string]float64),
	}
}

func (lt *layerTotals) add(name string, v float64) { lt.sums[name] += v }

func (lt *layerTotals) setGlobal(name string, v float64) { lt.global[name] = v }

// perPass resolves the totals into reported values.
func (lt *layerTotals) perPass(passes int) map[string]float64 {
	out := make(map[string]float64)
	if passes < 1 {
		passes = 1
	}
	for name, v := range lt.sums {
		out[name] = v / float64(passes)
	}
	for name, v := range lt.global {
		out[name] = v
	}
	for layer, a := range lt.allocs {
		if m := lt.msgs[layer]; m > 0 {
			out[layer+".allocs_per_msg"] = a / m
		}
	}
	if lt.newCalls > 0 {
		out["sim.new_allocs"] = lt.newAllocs / lt.newCalls
	}
	return out
}
