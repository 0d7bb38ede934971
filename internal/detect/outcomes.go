package detect

import (
	"sync"

	"botdetect/internal/features"
)

// Outcomes is a bounded, concurrency-safe buffer of labelled examples — the
// raw material of the online training loop. The serving path appends an
// example whenever ground truth reveals itself (a CAPTCHA outcome, a
// beacon-confirmed input event, a decoy or hidden-link hit, an operator or
// workload label), and the background trainer periodically drains a copy to
// retrain the AdaBoost model it then hot-swaps via Learned.SetModel.
//
// The buffer is a ring: once full, new outcomes overwrite the oldest, so a
// long-running deployment trains on a sliding window of recent behaviour.
// It grows on demand, one fixed-size chunk at a time and never by copying, so
// an engine that has seen no ground truth holds no buffer and a growing one
// leaves no garbage behind.
// Appends are rare events (at most a handful per session), so a plain mutex
// is the right cost model; classification never touches this structure.
type Outcomes struct {
	mu       sync.Mutex
	chunks   [][]features.Example // outcomeChunk examples each; the last may be shorter
	n        int                  // retained examples
	capacity int                  // n once full
	next     int                  // ring cursor once full
	total    int64                // lifetime appends
}

// outcomeChunk is how many examples the ring allocates at a time (13 KB).
const outcomeChunk = 128

// NewOutcomes creates a buffer retaining the most recent capacity examples
// (minimum 16). It allocates nothing until the first Add.
func NewOutcomes(capacity int) *Outcomes {
	return &Outcomes{capacity: max(capacity, 16)}
}

// at returns the i-th slot of the ring's storage.
func (o *Outcomes) at(i int) *features.Example {
	return &o.chunks[i/outcomeChunk][i%outcomeChunk]
}

// Add appends one labelled outcome.
func (o *Outcomes) Add(x features.Vector, human bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ex := features.Example{X: x, Human: human}
	if o.n == o.capacity {
		*o.at(o.next) = ex
		o.next = (o.next + 1) % o.capacity
	} else {
		if o.n%outcomeChunk == 0 {
			o.chunks = append(o.chunks, make([]features.Example, min(outcomeChunk, o.capacity-o.n)))
		}
		*o.at(o.n) = ex
		o.n++
	}
	o.total++
}

// Len returns the number of retained examples.
func (o *Outcomes) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

// Total returns the lifetime number of appended outcomes, including ones
// that have been overwritten. Trainers use it to detect new material since
// the last retrain.
func (o *Outcomes) Total() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.total
}

// Snapshot returns an independent copy of the retained examples (oldest
// first once the ring has wrapped; insertion order before that).
func (o *Outcomes) Snapshot() []features.Example {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]features.Example, 0, o.n)
	for k := 0; k < o.n; k++ {
		out = append(out, *o.at((o.next + k) % o.n))
	}
	return out
}
