package session

// Signals records, for each detection signal, the request count at which it
// was first observed (1-based; 0 = unobserved). It replaces the former
// map[Signal]int64: the signal space is a small fixed enum, so a flat uint32
// array is both smaller (36 bytes vs a heap map) and copyable by value —
// publishing a snapshot no longer allocates or shares a map.
type Signals struct {
	at [numSignals]uint32
}

// Has reports whether the signal was observed.
func (s *Signals) Has(sig Signal) bool {
	return int(sig) >= 0 && int(sig) < numSignals && s.at[sig] != 0
}

// At returns the request count at which the signal was first observed and
// whether it was observed at all.
func (s *Signals) At(sig Signal) (int64, bool) {
	if !s.Has(sig) {
		return 0, false
	}
	return int64(s.at[sig]), true
}

// Any reports whether any signal was observed.
func (s *Signals) Any() bool {
	for _, v := range s.at {
		if v != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of distinct signals observed.
func (s *Signals) Count() int {
	n := 0
	for _, v := range s.at {
		if v != 0 {
			n++
		}
	}
	return n
}

// Each calls yield for every observed signal in Signal order, stopping early
// when yield returns false.
func (s *Signals) Each(yield func(sig Signal, at int64) bool) {
	for i, v := range s.at {
		if v != 0 && !yield(Signal(i), int64(v)) {
			return
		}
	}
}

// set records the signal's first observation. Later sets are ignored (first
// observation wins, matching the former map semantics where Mark only wrote
// an absent key).
func (s *Signals) set(sig Signal, at uint32) {
	if int(sig) >= 0 && int(sig) < numSignals && s.at[sig] == 0 {
		if at == 0 {
			at = 1
		}
		s.at[sig] = at
	}
}
