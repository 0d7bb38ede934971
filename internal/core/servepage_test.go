package core

import (
	"slices"
	"strings"

	"botdetect/internal/agents"
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

// describePage formats what the last prepare call on ps issued to
// clientIP/userAgent. The tokens come from ps; the keys do not exist until
// the page's script is asked for, so describePage learns them the way a
// client does: it downloads the script and reads the beacon URLs out of it
// (Issued.Key stays empty when the download falls back).
func describePage(e *Engine, clientIP, userAgent string, ps *PageState) servedPage {
	iss := ps.Keys().Issued()
	prefix := e.cfg.BeaconPrefix
	page := servedPage{
		Issued:     iss,
		ScriptPath: jsgen.ScriptPath(prefix, iss.ScriptToken),
		CSSPath:    jsgen.CSSPath(prefix, iss.CSSToken),
		HiddenPath: jsgen.HiddenPath(prefix, iss.HiddenToken),
	}
	resp, _ := e.HandleBeacon(clientIP, userAgent, page.ScriptPath)
	page.Issued.Key, page.Issued.Decoys = scriptKeys(e, string(resp.Body))
	resp.Done()
	return page
}

// scriptKeys reads a served script the way the simulated clients do: the
// real key out of the event handler's beacon URL, and every other key the
// script carries (a short decoy set is cycled over the slots: each is listed
// once). Both are empty for the fallback body.
func scriptKeys(e *Engine, script string) (key string, decoys []string) {
	prefix := e.cfg.BeaconPrefix
	real := agents.HandlerBeaconURL(script, string(e.handlerName))
	for _, u := range agents.AllBeaconURLs(script) {
		if k := beaconKey(prefix, u); k != "" && u != real && !slices.Contains(decoys, k) {
			decoys = append(decoys, k)
		}
	}
	return beaconKey(prefix, real), decoys
}

// beaconKey returns the key a mouse-beacon URL (<prefix>/<key>.jpg) carries,
// or "" for any other URL.
func beaconKey(prefix, url string) string {
	obj, key, _, _ := jsgen.ParsePath(prefix, url)
	if obj != jsgen.ObjectBeacon || strings.Contains(key, "/") {
		return ""
	}
	return key
}

// instrumentPage serves one page view the way every surface does — prepare
// into a caller-owned PageState, rewrite, record — downloads its script as
// the client, and returns the rewritten page with a description of what was
// injected.
func instrumentPage(e *Engine, clientIP, userAgent, pagePath string, html []byte) ([]byte, servedPage) {
	var ps PageState
	res := e.PreparePage(clientIP, userAgent, pagePath, &ps).Rewrite(html)
	e.RecordInstrumented(len(html), res.AddedBytes)
	page := describePage(e, clientIP, userAgent, &ps)
	page.AddedBytes = res.AddedBytes
	return res.HTML, page
}
