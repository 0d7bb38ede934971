package core

import (
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
)

// servedPage describes one page view a test served: the keys and tokens as
// the wire spells them, and the request paths of the injected objects.
type servedPage struct {
	Issued                          keystore.Issued
	ScriptPath, CSSPath, HiddenPath string
	AddedBytes                      int
}

// describePage formats what the last prepare call on ps issued.
func describePage(e *Engine, ps *PageState) servedPage {
	iss := ps.Keys().Issued()
	prefix := e.cfg.BeaconPrefix
	return servedPage{
		Issued:     iss,
		ScriptPath: jsgen.ScriptPath(prefix, iss.ScriptToken),
		CSSPath:    jsgen.CSSPath(prefix, iss.CSSToken),
		HiddenPath: jsgen.HiddenPath(prefix, iss.HiddenToken),
	}
}

// instrumentPage serves one page view the way every surface does — prepare
// into a caller-owned PageState, rewrite, record — and returns the rewritten
// page with a description of what was injected.
func instrumentPage(e *Engine, clientIP, userAgent, pagePath string, html []byte) ([]byte, servedPage) {
	var ps PageState
	res := e.PreparePage(clientIP, userAgent, pagePath, &ps).Rewrite(html)
	e.RecordInstrumented(len(html), res.AddedBytes)
	page := describePage(e, &ps)
	page.AddedBytes = res.AddedBytes
	return res.HTML, page
}
