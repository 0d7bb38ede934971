package keystore

import (
	"slices"
	"testing"
	"time"
)

// TestPageKeysForFollowsBatchesThroughCompaction issues batches of differing
// decoy counts, kills some by TTL and some by the per-client cap, and checks
// that every survivor is still found under its script token with exactly its
// own key and decoys — the decoy runs are located by running sum, so a
// compaction that drifts by one count hands a batch its neighbour's decoys.
func TestPageKeysForFollowsBatchesThroughCompaction(t *testing.T) {
	const ip = "10.0.0.1"
	s, vc := newTestStore(t, Config{Decoys: 4, MaxPerClient: 6, TTL: time.Hour, Shards: 1})
	var issued []PageKeys
	issue := func(decoys int, ttl time.Duration) {
		var pk PageKeys
		s.IssuePageDegraded(ip, "/p.html", decoys, ttl, &pk)
		pk.Decoys = slices.Clone(pk.Decoys)
		issued = append(issued, pk)
	}
	check := func(pk PageKeys, wantLive bool) {
		t.Helper()
		key, decoys, ok := s.PageKeysFor(ip, pk.ScriptToken, nil)
		if ok != wantLive {
			t.Fatalf("token %d: live = %v, want %v", pk.ScriptToken, ok, wantLive)
		}
		if ok && (key != pk.Key || !slices.Equal(decoys, pk.Decoys)) {
			t.Fatalf("token %d: got key %d decoys %v, issued key %d decoys %v", pk.ScriptToken, key, decoys, pk.Key, pk.Decoys)
		}
	}

	issue(3, 10*time.Minute) // 0: dies by TTL
	issue(1, 0)              // 1
	issue(4, 10*time.Minute) // 2: dies by TTL
	issue(0, 0)              // 3
	issue(2, 0)              // 4
	for i, pk := range issued {
		check(pk, true)
		if _, _, ok := s.PageKeysFor("10.0.0.2", pk.ScriptToken, nil); ok {
			t.Fatalf("batch %d found under another client's address", i)
		}
	}

	vc.Advance(11 * time.Minute)
	check(issued[0], false) // expired but not yet swept: liveness must not wait for the sweep
	issue(4, 0)             // 5: the issue sweeps 0 and 2 out of the queue and arena
	for i, live := range []bool{false, true, false, true, true, true} {
		check(issued[i], live)
	}

	issue(3, 0) // 6
	issue(1, 0) // 7
	issue(2, 0) // 8: seven batches against a cap of six, so batch 1 is evicted
	for i, live := range []bool{false, false, false, true, true, true, true, true, true} {
		check(issued[i], live)
	}

	if v := s.ValidateValue(ip, issued[3].Key); v != Human {
		t.Fatalf("validate = %v", v)
	}
	check(issued[3], true) // a consumed key is still a live batch: the script re-renders
}
