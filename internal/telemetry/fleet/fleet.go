// Package fleet is the arithmetic of a casvm cluster's telemetry plane. A
// cluster job owns what its ranks report in the exec frames the coordinator
// has accepted — a mesh rank's trace spans and flow edges from its rank-done
// frame, an RA-CA rank's epoch durations from its checkpoint frames — and
// hands them here: Merge rebases per-rank timelines onto rank 0's clock,
// with offsets read off the edges themselves, and returns a single timeline
// (a Chrome trace with cross-process Perfetto arrows that casvm-profile can
// analyze), and Epochs judges a job's epoch table against its gang median.
// The package holds no job table, reads no wire and starts no goroutine.
package fleet

import "casvm/internal/trace"

// Rank is one rank's input to Merge: the timeline it shipped, on its own
// wall clock.
type Rank struct {
	Events []trace.Event
	Edges  []trace.FlowEdge
}
