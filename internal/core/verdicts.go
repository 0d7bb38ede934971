package core

import (
	"math"
	"sync"
	"sync/atomic"

	"botdetect/internal/session"
)

// verdictText is the part of a Verdict that a session record cannot hold as
// a number: the reason, and the node a replicated verdict came from.
type verdictText struct {
	reason, origin string
}

// verdictTexts numbers the distinct verdict texts one engine has produced,
// so a session record stores a verdict as a session.StoredVerdict — a uint16
// text number beside class, confidence, AtRequest and model epoch — instead
// of two strings. Numbers start at 1 (0 is "nothing stored") and are never
// reused: the detectors' reasons are constants and origins are fleet node
// names, so the table holds a few dozen entries. A verdict whose text would
// need a number past 65,535 is not stored, and recomputes on every read.
//
// A recompute numbers its text under mu; a cache hit reads the text back
// with one atomic load and no lock. The list is append-only: an entry below
// a published length is never written again, so a reader holding an older
// header never sees one change.
type verdictTexts struct {
	mu    sync.Mutex
	index map[verdictText]uint16        // guarded by mu
	list  atomic.Pointer[[]verdictText] // (*list)[n-1] is text n
}

func newVerdictTexts() *verdictTexts {
	t := &verdictTexts{index: make(map[verdictText]uint16)}
	t.list.Store(new([]verdictText))
	return t
}

// store encodes v, derived under modelEpoch, for the session record. It
// reports false for a verdict the record cannot hold: a field out of its
// width (a replicated verdict's fields come from another node), or a text
// the table has no number left for.
func (t *verdictTexts) store(v Verdict, modelEpoch uint64) (session.StoredVerdict, bool) {
	if v.AtRequest < 0 || v.AtRequest > math.MaxUint32 || v.Class < 0 || v.Class > math.MaxUint8 ||
		v.Confidence < 0 || v.Confidence > math.MaxUint8 {
		return session.StoredVerdict{}, false
	}
	text, ok := t.number(verdictText{reason: v.Reason, origin: v.Origin})
	if !ok {
		return session.StoredVerdict{}, false
	}
	// The model epoch is kept to 32 bits: a stored verdict would be served
	// again only after 2^32 model swaps.
	return session.StoredVerdict{ModelEpoch: uint32(modelEpoch), AtRequest: uint32(v.AtRequest), Text: text,
		Class: uint8(v.Class), Confidence: uint8(v.Confidence)}, true
}

// load decodes a stored verdict, if there is one and it was derived under
// modelEpoch. Its text is in the list: number published it before the
// verdict reached the record, and the record is read under the shard mutex
// the write-back took after that.
func (t *verdictTexts) load(sv session.StoredVerdict, modelEpoch uint64) (Verdict, bool) {
	if sv.Text == 0 || sv.ModelEpoch != uint32(modelEpoch) {
		return Verdict{}, false
	}
	text := (*t.list.Load())[sv.Text-1]
	return Verdict{Class: Class(sv.Class), Confidence: Confidence(sv.Confidence), Reason: text.reason,
		AtRequest: int64(sv.AtRequest), Origin: text.origin}, true
}

// number returns text's number, assigning the next one to a new text.
func (t *verdictTexts) number(text verdictText) (uint16, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.index[text]; ok {
		return n, true
	}
	list := *t.list.Load()
	if len(list) == math.MaxUint16 {
		return 0, false
	}
	list = append(list, text)
	t.list.Store(&list)
	n := uint16(len(list))
	t.index[text] = n
	return n, true
}
