package core

import (
	"slices"
	"strings"

	"botdetect/internal/agents"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/session"
)

// servedPage describes one page view a test served: the keys and tokens as
// the wire spells them, and the request paths of the injected objects.
type servedPage struct {
	Issued struct {
		Key                                string
		Decoys                             []string
		CSSToken, ScriptToken, HiddenToken string
	}
	ScriptPath, CSSPath, HiddenPath string
	AddedBytes                      int
}

// wire spells v, one of pk's tokens or keys, the way a URL carries it.
func wire(pk *keystore.PageKeys, v uint64) string { return string(pk.AppendKey(nil, v)) }

// objectPath spells the request path of one generated object the way the
// engine and the script templates do: the object's parts around its token or
// key.
func objectPath(parts func(prefix string) (pre, suf string), prefix, arg string) string {
	pre, suf := parts(prefix)
	return pre + arg + suf
}

// describePage formats what the last prepare call on ps issued to
// clientIP/userAgent. The tokens come from ps; the keys do not exist until
// the page's script is asked for, so describePage learns them the way a
// client does: it downloads the script and reads the beacon URLs out of it
// (Issued.Key stays empty when the download falls back).
func describePage(e *Engine, clientIP, userAgent string, ps *PageState) servedPage {
	pk, prefix := ps.Keys(), e.cfg.BeaconPrefix
	var page servedPage
	page.Issued.CSSToken = wire(pk, pk.CSSToken)
	page.Issued.ScriptToken = wire(pk, pk.ScriptToken)
	page.Issued.HiddenToken = wire(pk, pk.HiddenToken)
	page.ScriptPath = objectPath(jsgen.ScriptPathParts, prefix, page.Issued.ScriptToken)
	page.CSSPath = objectPath(jsgen.CSSPathParts, prefix, page.Issued.CSSToken)
	page.HiddenPath = objectPath(jsgen.HiddenPathParts, prefix, page.Issued.HiddenToken)
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
func instrumentPage(e *Engine, clientIP, userAgent string, html []byte) ([]byte, servedPage) {
	var ps PageState
	return instrumentPrepared(e, clientIP, userAgent, html, prepareFor(e, AdmitFull, clientIP, userAgent, &ps), &ps)
}

// instrumentPrepared is instrumentPage after the prepare step: prep is the
// injection prepared into ps.
func instrumentPrepared(e *Engine, clientIP, userAgent string, html []byte, prep *htmlmod.Prepared, ps *PageState) ([]byte, servedPage) {
	res := prep.Rewrite(html)
	e.RecordInstrumented(len(html), res.AddedBytes)
	page := describePage(e, clientIP, userAgent, ps)
	page.AddedBytes = res.AddedBytes
	return res.HTML, page
}

// prepareFor is the surfaces' page step: one verdict read, then Prepare.
func prepareFor(e *Engine, adm Admission, clientIP, userAgent string, ps *PageState) *htmlmod.Prepared {
	return e.Prepare(readVerdict(e, session.Key{IP: clientIP, UserAgent: userAgent}), adm, clientIP, ps)
}

// readVerdict is one verdict read: Decide, then Release.
func readVerdict(e *Engine, key session.Key) Verdict {
	snap, v, _ := e.Decide(key)
	snap.Release()
	return v
}
