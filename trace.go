package anonlead

import "anonlead/internal/trace"

// TraceEvent is one protocol event streamed to a WithTrace recorder: the
// protocols annotate decision points (e.g. the ire protocol's "candidate"
// and "leader" events, the revocable protocol's "choose") so runs can be
// debugged and asserted on without widening any protocol API. Tracing is
// observation-only: nothing a recorder does flows back into the election.
type TraceEvent struct {
	// Round is the synchronous round of the event (-1 for events emitted
	// during node initialization).
	Round int
	// Node is the emitting node's index — simulation-side observability;
	// the anonymous protocols themselves never see indices.
	Node int
	// Kind groups events for counting and filtering (e.g. "candidate",
	// "leader", "choose").
	Kind string
	// Detail is free-form context.
	Detail string
}

// TraceRecorder receives protocol trace events. Implementations must be
// safe for concurrent RecordTrace calls: the WorkerPool scheduler and the
// transports emit from per-node goroutines.
type TraceRecorder interface {
	RecordTrace(TraceEvent)
}

// TraceFunc adapts a function to a TraceRecorder. The function must be
// safe for concurrent calls.
type TraceFunc func(TraceEvent)

// RecordTrace implements TraceRecorder.
func (f TraceFunc) RecordTrace(e TraceEvent) { f(e) }

// traceAdapter bridges a public TraceRecorder onto the internal
// trace.Recorder interface the simulator consumes.
type traceAdapter struct{ r TraceRecorder }

func (a traceAdapter) Record(e trace.Event) {
	a.r.RecordTrace(TraceEvent{Round: e.Round, Node: e.Node, Kind: e.Kind, Detail: e.Detail})
}
