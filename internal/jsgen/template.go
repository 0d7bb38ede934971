package jsgen

import (
	"strconv"
	"sync/atomic"

	"botdetect/internal/rng"
)

// This file implements the precompiled script path: instead of rebuilding the
// whole obfuscated beacon script per page view (identifier randomisation,
// junk statements, character encoding — all string concatenation), a Variant
// is compiled once with placeholder keys and byte-offset splice points, and
// per-page generation becomes one template copy plus a handful of digit-key
// splices. A Pool holds K variants for one deployment shape and rotates them
// per page, so individual page views still receive differing script bodies
// while the per-page cost is a memcpy.

// TemplateConfig describes the per-deployment constants a compiled script
// variant is specialised for. Everything that varies per page (the real key,
// the decoy keys, the UA-report key) is spliced in at render time.
type TemplateConfig struct {
	// BeaconBase is the optional absolute URL prefix for beacons.
	BeaconBase string
	// BeaconPrefix is the instrumentation path prefix (default "/__bd").
	BeaconPrefix string
	// KeyDigits is the decimal-digit length of the spliced keys (default 10);
	// values above MaxTokenDigits are clamped, as the keystore clamps its own.
	KeyDigits int
	// Decoys is the number of decoy beacon functions.
	Decoys int
	// UAReport includes the script-load execution beacon statement.
	UAReport bool
	// Obfuscate enables lexical obfuscation (randomised identifiers, junk
	// statements, shuffled function order, character-encoded URLs).
	Obfuscate bool
}

func (c TemplateConfig) withDefaults() TemplateConfig {
	if c.BeaconPrefix == "" {
		c.BeaconPrefix = DefaultBeaconPrefix
	}
	if c.KeyDigits <= 0 {
		c.KeyDigits = 10
	}
	c.KeyDigits = min(c.KeyDigits, MaxTokenDigits)
	return c
}

// MaxTokenDigits is the widest numeric key RenderKeys splices: 19 decimal
// digits, the uint64 limit (mirrors keystore.MaxKeyDigits).
const MaxTokenDigits = 19

// Splice sources: which per-page key fills a splice point. Non-negative
// values index the decoy slice.
const (
	spliceReal = -1
	spliceUA   = -2
)

// splice is one placeholder region inside a compiled template.
type splice struct {
	off     int  // byte offset of the placeholder in tmpl
	n       int  // placeholder byte length
	src     int  // spliceReal, spliceUA, or a decoy index
	charEnc bool // placeholder is charcode-encoded ("48,57,..."), else raw digits
}

// Variant is one precompiled script template. It is immutable after Compile
// and safe for concurrent RenderKeys calls.
type Variant struct {
	tmpl    []byte
	splices []splice
}

// Size returns the rendered script size when the spliced keys have the
// compiled KeyDigits length (placeholders are fixed-width in that case).
func (v *Variant) Size() int { return len(v.tmpl) }

// RenderKeys appends the script with the given keys spliced in to dst and
// returns the extended slice. Each key is spliced as exactly digits decimal
// digits (leading zeros preserved, digits bounded by MaxTokenDigits), the wire
// format keystore.PageKeys carries. With dst capacity >= Size and digits the
// compiled KeyDigits it allocates nothing.
func (v *Variant) RenderKeys(dst []byte, realKey, uaKey uint64, decoys []uint64, digits int) []byte {
	digits = min(digits, MaxTokenDigits)
	prev := 0
	for _, sp := range v.splices {
		dst = append(dst, v.tmpl[prev:sp.off]...)
		var key uint64
		ok := true
		switch sp.src {
		case spliceReal:
			key = realKey
		case spliceUA:
			key = uaKey
		default:
			// Fewer issued decoys than template slots (a degraded page
			// view): cycle the issued set so every slot still carries a
			// plausible beacon URL — an empty splice would render the
			// fingerprintable literal '/__bd/.jpg'.
			if len(decoys) > 0 {
				key = decoys[sp.src%len(decoys)]
			} else {
				ok = false
			}
		}
		if ok {
			if sp.charEnc {
				dst = appendCharCodesValue(dst, key, digits)
			} else {
				dst = rng.AppendFixedDigits(dst, key, digits)
			}
		}
		prev = sp.off + sp.n
	}
	return append(dst, v.tmpl[prev:]...)
}

// appendCharCodesValue appends the String.fromCharCode argument run for a
// fixed-width numeric key of at most MaxTokenDigits digits: each digit's
// character code followed by a comma (the template always continues with at
// least the URL suffix after a key, so the trailing comma is correct). Digit d
// has character code 48+d, always two decimal digits, so no strconv round trip
// is needed.
func appendCharCodesValue(dst []byte, v uint64, digits int) []byte {
	var buf [MaxTokenDigits]byte
	for i := digits - 1; i >= 0; i-- {
		buf[i] = byte(v % 10)
		v /= 10
	}
	for i := 0; i < digits; i++ {
		c := 48 + buf[i] // '0'..'9' => codes 48..57
		dst = append(dst, '0'+c/10, '0'+c%10, ',')
	}
	return dst
}

// tmplBuilder accumulates template bytes and splice points.
type tmplBuilder struct {
	buf     []byte
	splices []splice
}

func (tb *tmplBuilder) str(s string) { tb.buf = append(tb.buf, s...) }

// keyHole records a splice point for src and emits a fixed-width placeholder
// (the all-zeros key) in the requested encoding.
func (tb *tmplBuilder) keyHole(src, digits int, charEnc bool) {
	off := len(tb.buf)
	if charEnc {
		for i := 0; i < digits; i++ {
			tb.buf = append(tb.buf, '4', '8', ',') // charcode of '0', then ','
		}
		tb.splices = append(tb.splices, splice{off: off, n: 3 * digits, src: src, charEnc: true})
		return
	}
	for i := 0; i < digits; i++ {
		tb.buf = append(tb.buf, '0')
	}
	tb.splices = append(tb.splices, splice{off: off, n: digits, src: src})
}

// urlKeyExpr emits the JavaScript string expression for pre+KEY+suf with a
// splice point where the key goes: a single-quoted literal, or a
// String.fromCharCode call under obfuscation (so the beacon URL never appears
// verbatim in the script text).
func (tb *tmplBuilder) urlKeyExpr(pre, suf string, src, digits int, obfuscate bool) {
	if !obfuscate {
		tb.str("'")
		tb.str(pre)
		tb.keyHole(src, digits, false)
		tb.str(suf)
		tb.str("'")
		return
	}
	tb.str("String.fromCharCode(")
	for i := 0; i < len(pre); i++ {
		tb.buf = strconv.AppendInt(tb.buf, int64(pre[i]), 10)
		tb.buf = append(tb.buf, ',')
	}
	tb.keyHole(src, digits, true)
	for i := 0; i < len(suf); i++ {
		if i > 0 {
			tb.buf = append(tb.buf, ',')
		}
		tb.buf = strconv.AppendInt(tb.buf, int64(suf[i]), 10)
	}
	tb.str(")")
}

// beaconFn emits one guard+function pair fetching pre+KEY+suf, once: the
// guard makes every later call return false. name is the function's global
// name (the real handler or a random decoy name).
func beaconFn(tb *tmplBuilder, nm *namer, name, pre, suf string, src, digits int, obfuscate bool) {
	guard := nm.next()
	img := nm.next()
	tb.str("var " + guard + "=0;function " + name + "(){if(" + guard + ")return false;" +
		guard + "=1;var " + img + "=new Image();" + img + ".src=")
	tb.urlKeyExpr(pre, suf, src, digits, obfuscate)
	tb.str(";return true}")
}

// Compile builds one script variant for the deployment shape: all lexical
// obfuscation work (identifier randomisation, junk statements, function-order
// shuffling, character encoding of URLs) happens here, once, and RenderKeys
// reduces a page view to a copy plus key splices. The same (config, seed)
// pair always compiles the same variant.
func (g *Generator) Compile(cfg TemplateConfig, seed uint64) *Variant {
	cfg = cfg.withDefaults()
	nm := newNamer(seed)
	handler := g.HandlerName
	if handler == "" {
		handler = "__bd_f"
	}
	// URL formats come from the shared path helpers so the compiled splice
	// points always match what HandleBeacon parses.
	beaconPre, beaconSuf := BeaconPathParts(cfg.BeaconPrefix)
	beaconPre = cfg.BeaconBase + beaconPre

	// Build the genuine handler and the decoys as separate segments so the
	// obfuscation shuffle can reorder them before offsets are finalised.
	segs := make([]tmplBuilder, 1+cfg.Decoys)
	beaconFn(&segs[0], nm, handler, beaconPre, beaconSuf, spliceReal, cfg.KeyDigits, cfg.Obfuscate)
	for i := 0; i < cfg.Decoys; i++ {
		beaconFn(&segs[1+i], nm, nm.next(), beaconPre, beaconSuf, i, cfg.KeyDigits, cfg.Obfuscate)
	}
	if cfg.Obfuscate && len(segs) > 1 {
		nm.src.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	}

	var out tmplBuilder
	if cfg.Obfuscate {
		out.str(junkStatements(nm, 3+nm.src.Intn(4)))
	}
	for i := range segs {
		base := len(out.buf)
		out.buf = append(out.buf, segs[i].buf...)
		for _, sp := range segs[i].splices {
			sp.off += base
			out.splices = append(out.splices, sp)
		}
		if cfg.Obfuscate && nm.src.Bool(0.5) {
			out.str(junkStatements(nm, 1+nm.src.Intn(3)))
		}
	}

	// JS-execution report: fires on script load, proving the client executes
	// JavaScript even when no input event ever happens.
	if cfg.UAReport {
		execPre, execSuf := ExecBeaconPathParts(cfg.BeaconPrefix)
		execImg := nm.next()
		out.str("var " + execImg + "=new Image();" + execImg + ".src=")
		out.urlKeyExpr(cfg.BeaconBase+execPre, execSuf, spliceUA, cfg.KeyDigits, cfg.Obfuscate)
		out.str("+'?ua='+encodeURIComponent(navigator.userAgent.toLowerCase().replace(/ /g,''))")
	}
	return &Variant{tmpl: out.buf, splices: out.splices}
}

// DefaultVariants is the Pool size used when none is configured.
const DefaultVariants = 8

// Pool holds K compiled variants of one deployment shape. Callers Pick a
// variant per page, so consecutive page views receive differing obfuscated
// bodies without paying compilation per page; Rotate recompiles the whole
// set (a rotation epoch), refreshing identifiers and junk so no variant body
// survives long enough to be signature-matched. All methods are safe for
// concurrent use; Rotate swaps the variant set atomically under readers.
type Pool struct {
	g    *Generator
	cfg  TemplateConfig
	k    int
	vars atomic.Pointer[[]*Variant]
}

// NewPool compiles k variants (DefaultVariants when k <= 0) seeded from seed.
func NewPool(g *Generator, cfg TemplateConfig, k int, seed uint64) *Pool {
	if k <= 0 {
		k = DefaultVariants
	}
	p := &Pool{g: g, cfg: cfg.withDefaults(), k: k}
	p.Rotate(seed)
	return p
}

// Rotate compiles a fresh variant set from seed and publishes it with one
// atomic store. In-flight renders finish on the epoch they picked.
func (p *Pool) Rotate(seed uint64) {
	src := rng.New(seed).Fork("jsgen-pool")
	vars := make([]*Variant, p.k)
	for i := range vars {
		vars[i] = p.g.Compile(p.cfg, src.Uint64())
	}
	p.vars.Store(&vars)
}

// Variants returns the number of variants per rotation epoch.
func (p *Pool) Variants() int { return p.k }

// Pick returns the variant selected by pick (any well-mixed per-page value,
// typically a draw off the caller's RNG stream).
func (p *Pool) Pick(pick uint64) *Variant {
	vars := *p.vars.Load()
	return vars[pick%uint64(len(vars))]
}
