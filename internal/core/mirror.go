package core

import (
	"botdetect/internal/htmlmod"
	"botdetect/internal/session"
)

// PreparePage is Decide, Release and Prepare for a fully admitted page view;
// the page path is unused. Kept for benchmark/layers.go, whose shadow engine
// mirrors the serving surfaces through it; goes with ROADMAP item 2(h).
func (e *Engine) PreparePage(clientIP, userAgent, pagePath string, ps *PageState) *htmlmod.Prepared {
	return e.decidePrepare(AdmitFull, clientIP, userAgent, ps)
}

// PreparePageDegraded is PreparePage for an AdmitDegraded page view (see
// keystore.Store.IssuePageDegraded). Kept for benchmark/layers.go; goes with
// ROADMAP item 2(h).
func (e *Engine) PreparePageDegraded(clientIP, userAgent, pagePath string, ps *PageState) *htmlmod.Prepared {
	return e.decidePrepare(AdmitDegraded, clientIP, userAgent, ps)
}

func (e *Engine) decidePrepare(adm Admission, clientIP, userAgent string, ps *PageState) *htmlmod.Prepared {
	snap, v, _ := e.Decide(session.Key{IP: clientIP, UserAgent: userAgent})
	snap.Release()
	return e.Prepare(v, adm, clientIP, ps)
}
