package session

import (
	"botdetect/internal/features"
	"botdetect/internal/logfmt"
)

// Accumulator incrementally computes a session's request counters (and hence
// its Table 2 attribute vector) from a request stream, optionally truncated
// to the first Limit requests. It shares the tracker's counting
// implementation (Counts.observe) and path-tracking bound, so offline replay
// and the prefix-classifier experiments (Figure 4) derive vectors identical
// to what the online tracker reports for the same stream.
type Accumulator struct {
	// Limit caps the number of requests considered (0 = unlimited).
	Limit int64

	counts Counts
	paths  pathTable
}

// NewAccumulator creates an Accumulator considering at most limit requests
// (0 for unlimited). It uses the tracker's compact fingerprint path set.
func NewAccumulator(limit int64) *Accumulator {
	return &Accumulator{Limit: limit}
}

// Observe adds one request if the limit has not been reached. It reports
// whether the request was counted.
func (a *Accumulator) Observe(e logfmt.Entry) bool {
	if a.Limit > 0 && int64(a.counts.Total) >= a.Limit {
		return false
	}
	a.counts.observe(e, &a.paths)
	return true
}

// Vector returns the attribute vector over the counted requests.
func (a *Accumulator) Vector() features.Vector { return a.counts.Vector() }
