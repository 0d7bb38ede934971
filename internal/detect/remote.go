// Remote holds verdicts replicated from other fleet nodes and serves them
// into the local detector chain, so a session blocked by a peer's engine is
// recognised here even though the local engine never saw its evidence.
package detect

import (
	"sync"

	"botdetect/internal/session"
)

// Remote is a Detector over fleet-replicated verdicts. It sits between
// direct evidence and the learned model in the serving chain: locally
// observed hard evidence still outranks it, but a peer's definite verdict
// outranks the local statistical guess. Reads are lock-free (sync.Map), so
// the serving path pays one map lookup and no locks.
type Remote struct {
	verdicts sync.Map // session.Key -> Verdict (Origin always set)
}

// NewRemote returns an empty remote-verdict store.
func NewRemote() *Remote { return &Remote{} }

// Name implements Detector.
func (r *Remote) Name() string { return "remote-verdicts" }

// Detect implements Detector: it returns the replicated verdict for the
// session, or abstains.
func (r *Remote) Detect(snap *session.Snapshot) (Verdict, bool) {
	v, ok := r.verdicts.Load(snap.Key)
	if !ok {
		return Verdict{}, false
	}
	return v.(Verdict), true
}

// Set stores a replicated verdict for key, tagged with its origin node. It
// reports whether the stored verdict changed (same-class, not-higher
// confidence repeats are no-ops, so replays cause no cache invalidation).
func (r *Remote) Set(key session.Key, v Verdict, origin string) bool {
	v.Origin = origin
	if cur, ok := r.verdicts.Load(key); ok {
		c := cur.(Verdict)
		if c.Class == v.Class && c.Confidence >= v.Confidence {
			return false
		}
	}
	r.verdicts.Store(key, v)
	return true
}

// Get returns the replicated verdict for key, if any.
func (r *Remote) Get(key session.Key) (Verdict, bool) {
	v, ok := r.verdicts.Load(key)
	if !ok {
		return Verdict{}, false
	}
	return v.(Verdict), true
}
