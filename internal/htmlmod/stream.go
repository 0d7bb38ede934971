package htmlmod

import (
	"bytes"
	"io"
	"net"
	"sync"
)

// StreamResult reports what the streaming rewriter injected. It is valid
// after Close.
type StreamResult struct {
	// InjectedCSS, InjectedScript, InjectedHandlers, InjectedInline and
	// InjectedHidden report which injections were applied.
	InjectedCSS      bool
	InjectedScript   bool
	InjectedHandlers bool
	InjectedInline   bool
	InjectedHidden   bool
	// AddedBytes is the size increase of the document.
	AddedBytes int
	// Truncated reports that the hold limit was exceeded: the remaining
	// input was forwarded verbatim and pending injections were skipped.
	Truncated bool
}

// StreamRewriter injects instrumentation into an HTML document as its bytes
// flow through, emitting untouched spans verbatim to the underlying writer
// and splicing the prepared fragments in at the <head>, <body> and </body>
// anchors as they are recognised. It is the package's one rewriter:
// Rewrite and Prepared.Rewrite run a whole document through it.
//
// Each fragment has one place. The head fragment goes after the first
// <head>; a document with none gets it after the first <body>, else after
// the first <html>, else in front. The inline reporter goes after the first
// <body> and the trap link before the first </body>, each appended at the
// end when its tag never comes; the handler attributes go on the first
// <body>.
//
// The rewriter emits eagerly: once the first <head> tag has been seen, the
// head fragment and everything before it are already on the wire, so
// time-to-first-byte is proportional to the distance to the first anchor,
// not to the document length. Input is retained only where the decision is
// not yet safe:
//
//   - everything before the first <head>, because only the document's end
//     can show that it has none;
//   - raw-text element content (script/style/textarea/title) until its end
//     tag, because an unterminated raw-text element is re-scanned as markup;
//   - an incomplete trailing token (a tag split across chunks).
//
// While holding, the rewriter keeps scanning and notes whether a <body>,
// </body> or <html> went by. At the first <head> it streams on as usual,
// unless a body anchor came first: then it streams the held bytes again
// from the start, placing the body fragments as it meets them. A document
// that ends without a <head> is streamed again the same way at Close, with
// the head fragment's anchor chosen from what went by.
//
// A StreamRewriter is not safe for concurrent use. Use NewStreamRewriter
// and Release to recycle instances through the package pool.
type StreamRewriter struct {
	w io.Writer
	p *Prepared

	// Pending anchors.
	needHead, needBody, needBodyEnd bool
	// headTag is the tag the head fragment follows: "head", or for a
	// document that ended without one, "body" or "html".
	headTag string
	// holding retains all output while the head anchor is unresolved; the
	// held* flags note the other anchors that went by meanwhile.
	holding                         bool
	heldBody, heldBodyEnd, heldHTML bool

	mode    int
	carry   []byte // retained, unemitted input
	scanPos int    // scan progress within carry
	// Raw-text state: the element name (rawtext names are at most 8 bytes)
	// and the resume offset for the incremental close-tag search.
	rawName    [8]byte
	rawNameLen int
	rawProbe   int
	// minGrow defers re-scanning an ambiguous held region (an open tag or
	// comment split across chunks) until it has roughly doubled since the
	// last attempt. Each rescan restarts from the construct's first byte, so
	// without the backoff a multi-chunk 1 MiB attribute would cost O(n²)
	// byte scans; with it the total rescan work stays O(n).
	minGrow int

	attrs   []rawAttr
	scratch []byte

	// Emission is gathered: emitted spans are queued in vec and flushed
	// through net.Buffers.WriteTo at the end of each feed — one writev on a
	// *net.TCPConn, splicing origin chunks and prepared fragments into the
	// socket with no intermediate copy, and sequential Writes on any other
	// writer. Spans may alias the caller's chunk or the carry buffer, so
	// every return path out of feed flushes before those bytes can be reused.
	vec net.Buffers
	// vecW is the WriteTo handover slot: net.Buffers.WriteTo has a pointer
	// receiver and consumes its slice, so flushing through a local would
	// heap-allocate the slice header on every flush. The field keeps the
	// flush allocation-free; its backing array is shared with vec, whose
	// elements WriteTo nils out as it consumes them.
	vecW net.Buffers

	holdLimit int
	inBytes   int64
	outBytes  int64
	res       StreamResult
	err       error
	closed    bool
}

const (
	modeScan        = iota // scanning for tokens and anchors
	modeRawText            // inside a raw-text element, seeking its end tag
	modePassthrough        // nothing left to inject: copy bytes verbatim
)

var streamPool = sync.Pool{New: func() any { return new(StreamRewriter) }}

// NewStreamRewriter returns a pooled rewriter that streams into w, injecting
// the prepared fragments. Call Close to finish the document and Release to
// return the rewriter to the pool.
func NewStreamRewriter(w io.Writer, p *Prepared) *StreamRewriter {
	r := streamPool.Get().(*StreamRewriter)
	r.Reset(w, p)
	return r
}

// Reset reinitialises the rewriter for a new document streaming into w.
// Per-connection callers keep one rewriter across keep-alive requests and
// Reset it per page instead of cycling the package pool.
func (r *StreamRewriter) Reset(w io.Writer, p *Prepared) {
	r.w, r.p = w, p
	r.needHead = len(p.headInsert) > 0
	r.needBody = len(p.bodyTop) > 0 || len(p.handlerCall) > 0
	r.needBodyEnd = len(p.bodyBottom) > 0
	r.headTag = "head"
	r.holding = r.needHead
	r.heldBody, r.heldBodyEnd, r.heldHTML = false, false, false
	r.mode = modeScan
	if !r.needHead && !r.needBody && !r.needBodyEnd {
		r.mode = modePassthrough
	}
	r.carry = r.carry[:0]
	r.scanPos, r.rawNameLen, r.rawProbe, r.minGrow = 0, 0, 0, 0
	r.vec = r.vec[:0]
	r.holdLimit = 0
	r.inBytes, r.outBytes = 0, 0
	r.res = StreamResult{}
	r.err = nil
	r.closed = false
}

// SetHoldLimit bounds the bytes the rewriter may retain while waiting for an
// anchor (a document without a <head> is held whole otherwise). When
// the limit is exceeded the retained bytes are forwarded verbatim and the
// remaining injections are skipped (Result reports Truncated). Zero means
// unlimited.
func (r *StreamRewriter) SetHoldLimit(n int) { r.holdLimit = n }

// Release returns the rewriter to the package pool. The rewriter must not
// be used afterwards.
func (r *StreamRewriter) Release() {
	r.w, r.p = nil, nil
	for i := range r.vec {
		r.vec[i] = nil // do not pin emitted spans
	}
	r.vec = r.vec[:0]
	r.vecW = nil
	if cap(r.carry) > 1<<20 {
		r.carry = nil // do not pin pathological buffers in the pool
	}
	streamPool.Put(r)
}

// Result returns what was injected. It is complete only after Close.
func (r *StreamRewriter) Result() StreamResult { return r.res }

// Write feeds the next chunk of the original document.
func (r *StreamRewriter) Write(p []byte) (int, error) {
	if r.closed {
		return 0, io.ErrClosedPipe
	}
	r.feed(p, false)
	if r.err != nil {
		return 0, r.err
	}
	return len(p), nil
}

// Close finishes the document: unresolved constructs are re-scanned under
// end-of-input rules, a held document without a <head> is streamed out with
// its head fragment placed, and pending body fragments are appended.
func (r *StreamRewriter) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.mode != modePassthrough {
		r.feed(nil, true)
	}
	r.res.AddedBytes = int(r.outBytes - r.inBytes)
	return r.err
}

func (r *StreamRewriter) feed(data []byte, atEOF bool) {
	if r.err != nil {
		return
	}
	r.inBytes += int64(len(data))
	if r.mode == modePassthrough {
		r.emit(data)
		r.flush()
		return
	}
	var buf []byte
	switch {
	case len(r.carry) == 0:
		buf = data
	case len(data) == 0:
		buf = r.carry
	default:
		r.carry = append(r.carry, data...)
		buf = r.carry
	}
	done := r.process(buf, atEOF)
	if r.mode == modePassthrough {
		r.flush()
		r.carry = r.carry[:0]
		r.scanPos, r.rawProbe = 0, 0
		return
	}
	// Retain the unemitted tail and rebase scan offsets onto it. Queued
	// spans point into buf's emitted prefix, which the copy-down
	// below overwrites, so they must hit the wire first.
	r.flush()
	tail := buf[done:]
	if len(r.carry) == 0 {
		r.carry = append(r.carry[:0], tail...)
	} else if done > 0 {
		n := copy(r.carry, tail)
		r.carry = r.carry[:n]
	} else if len(data) > 0 || len(tail) != len(r.carry) {
		r.carry = r.carry[:len(tail)]
	}
	r.scanPos -= done
	r.rawProbe -= done
	if r.rawProbe < 0 {
		r.rawProbe = 0
	}
	if r.holdLimit > 0 && len(r.carry) > r.holdLimit {
		// Bounded memory beats completeness: forward the retained bytes
		// verbatim and stop injecting.
		r.res.Truncated = true
		r.holding = false
		r.needHead, r.needBody, r.needBodyEnd = false, false, false
		r.mode = modePassthrough
		r.emit(r.carry)
		r.flush() // before the next feed can append over carry
		r.carry = r.carry[:0]
	}
}

// process scans buf (the retained input plus the new chunk) and returns how
// many bytes from its front were emitted. While holding, nothing is emitted
// and the return value is 0.
func (r *StreamRewriter) process(buf []byte, atEOF bool) int {
	done := 0
	for {
		switch r.mode {
		case modeRawText:
			name := r.rawName[:r.rawNameLen]
			idx := findRawTextClose(buf, r.rawProbe, name)
			if idx < 0 {
				if !atEOF {
					// Resume the search next chunk, overlapping enough that a
					// split "</nam" still matches.
					r.rawProbe = len(buf) - (2 + len(name)) + 1
					if r.rawProbe < r.scanPos {
						r.rawProbe = r.scanPos
					}
					return done
				}
				// No end tag by EOF: the scanner re-reads the raw content as
				// ordinary markup (historical behaviour).
				r.mode = modeScan
				continue
			}
			gt := indexFrom(buf, idx, ">")
			if gt < 0 {
				if !atEOF {
					r.rawProbe = idx
					return done
				}
				// "</name" with no closing '>': the historical scanner stops
				// here; nothing after idx is a token or an anchor.
				if r.holding {
					r.releaseHeadless()
					continue
				}
				r.emitRange(buf, done, len(buf))
				done = len(buf)
				r.finishEOF()
				return done
			}
			// Content plus the end tag are inert: no anchors inside.
			if !r.holding {
				r.emitRange(buf, done, gt+1)
				done = gt + 1
			}
			r.scanPos = gt + 1
			r.mode = modeScan

		case modePassthrough:
			r.emitRange(buf, done, len(buf))
			return len(buf)

		default: // modeScan
			if !atEOF && len(buf)-r.scanPos < r.minGrow {
				// The held construct has not grown enough to be worth
				// re-scanning from its start yet.
				return done
			}
			tok, textEnd, st := scanNextTag(buf, r.scanPos, atEOF, &r.attrs)
			switch st {
			case scanNeedMore:
				if !r.holding {
					r.emitRange(buf, done, textEnd)
					done = textEnd
				}
				r.scanPos = textEnd
				r.minGrow = 2 * (len(buf) - textEnd)
				return done
			case scanEOFText:
				if r.holding {
					r.releaseHeadless()
					continue
				}
				r.emitRange(buf, done, len(buf))
				done = len(buf)
				r.finishEOF()
				return done
			default:
				r.minGrow = 0
				done = r.handleToken(buf, tok, done)
			}
		}
	}
}

// handleToken processes one complete non-text token and returns the updated
// emitted-prefix length.
func (r *StreamRewriter) handleToken(buf []byte, tok rawToken, done int) int {
	emitTo := func(to int) {
		if !r.holding {
			r.emitRange(buf, done, to)
			done = to
		}
	}
	switch tok.typ {
	case startTagToken:
		name := buf[tok.nameStart:tok.nameEnd]
		if r.holding {
			switch {
			case foldEq(name, "head"):
				r.holding = false
				if r.heldBody || r.heldBodyEnd {
					// A body anchor went by first: stream the held bytes
					// again, placing its fragments on the way to this tag.
					r.replay()
					return 0
				}
			case foldEq(name, "body"):
				r.heldBody = true
			case foldEq(name, "html"):
				r.heldHTML = true
			}
		}
		switch {
		case r.holding:
			// Nothing is placed while the head anchor is unresolved.
		case foldEq(name, "body"):
			if r.needBody && len(r.p.handlerCall) > 0 {
				emitTo(tok.start)
				r.scratch = appendBodyTag(r.scratch[:0], buf, r.attrs, tok.selfClosing, r.p.handlerCall)
				r.emit(r.scratch)
				done = tok.end
				r.res.InjectedHandlers = true
			} else {
				emitTo(tok.end)
			}
			if r.needHead && foldEq(name, r.headTag) {
				r.placeHead()
			}
			if r.needBody {
				r.emit(r.p.bodyTop)
				r.res.InjectedInline = r.p.inlineSet
				r.needBody = false
			}
		case r.needHead && foldEq(name, r.headTag):
			emitTo(tok.end)
			r.placeHead()
		default:
			emitTo(tok.end)
		}
		if !tok.selfClosing && isRawTextName(name) {
			r.rawNameLen = copy(r.rawName[:], name)
			r.scanPos = tok.end
			r.rawProbe = tok.end
			r.mode = modeRawText
			return done
		}
	case endTagToken:
		if foldEq(buf[tok.nameStart:tok.nameEnd], "body") {
			if r.holding {
				r.heldBodyEnd = true
			} else if r.needBodyEnd {
				emitTo(tok.start)
				r.emit(r.p.bodyBottom)
				r.res.InjectedHidden = r.p.hiddenSet
				r.needBodyEnd = false
			}
		}
		emitTo(tok.end)
	default: // comments and declarations are inert
		emitTo(tok.end)
	}
	r.scanPos = tok.end
	if !r.needHead && !r.needBody && !r.needBodyEnd {
		r.mode = modePassthrough
	}
	return done
}

// placeHead emits the head fragment.
func (r *StreamRewriter) placeHead() {
	r.emit(r.p.headInsert)
	r.needHead = false
	r.res.InjectedCSS, r.res.InjectedScript = r.p.cssSet, r.p.scriptSet
}

// releaseHeadless ends the hold of a document that has no <head>: its head
// fragment goes after the first <body>, else after the first <html>, else
// in front, and the held bytes are streamed again to place it.
func (r *StreamRewriter) releaseHeadless() {
	r.holding = false
	switch {
	case r.heldBody:
		r.headTag = "body"
	case r.heldHTML:
		r.headTag = "html"
	default:
		r.placeHead()
	}
	r.replay()
}

// replay restarts the scan at the front of the held bytes, which nothing
// has been emitted from yet.
func (r *StreamRewriter) replay() {
	r.mode = modeScan
	r.scanPos, r.rawProbe, r.minGrow = 0, 0, 0
}

// finishEOF appends the fragments whose anchors never appeared: the inline
// reporter, then the trap link.
func (r *StreamRewriter) finishEOF() {
	if r.needBody {
		r.emit(r.p.bodyTop)
		r.res.InjectedInline = r.p.inlineSet
		r.needBody = false
	}
	if r.needBodyEnd {
		r.emit(r.p.bodyBottom)
		r.res.InjectedHidden = r.p.hiddenSet
		r.needBodyEnd = false
	}
	r.mode = modePassthrough
}

func (r *StreamRewriter) emit(b []byte) {
	if r.err != nil || len(b) == 0 {
		return
	}
	r.vec = append(r.vec, b)
	r.outBytes += int64(len(b))
}

// flush writes the queued spans with one gathered write (writev on a TCP
// connection). net.Buffers.WriteTo consumes the slice it is given, so the
// queue is handed over and re-armed over the same backing array.
func (r *StreamRewriter) flush() {
	if len(r.vec) == 0 {
		return
	}
	if r.err == nil {
		r.vecW = r.vec
		if _, err := r.vecW.WriteTo(r.w); err != nil {
			r.err = err
		}
	}
	r.vec = r.vec[:0]
}

func (r *StreamRewriter) emitRange(buf []byte, from, to int) {
	if to > from {
		r.emit(buf[from:to])
	}
}

// RewriteStream streams doc through a pooled StreamRewriter into w and
// returns what was injected.
func RewriteStream(doc []byte, w io.Writer, p *Prepared) (StreamResult, error) {
	r := NewStreamRewriter(w, p)
	_, _ = r.Write(doc)
	err := r.Close()
	res := r.Result()
	r.Release()
	return res, err
}

// Rewrite runs a whole document through the streaming injector. The
// returned HTML is freshly allocated and caller-owned.
func (p *Prepared) Rewrite(doc []byte) RewriteResult {
	var b bytes.Buffer
	b.Grow(len(doc) + len(p.headInsert) + len(p.bodyTop) + len(p.bodyBottom) + 96)
	sres, _ := RewriteStream(doc, &b, p)
	return RewriteResult{
		HTML:             b.Bytes(),
		InjectedCSS:      sres.InjectedCSS,
		InjectedScript:   sres.InjectedScript,
		InjectedHandlers: sres.InjectedHandlers,
		InjectedInline:   sres.InjectedInline,
		InjectedHidden:   sres.InjectedHidden,
		AddedBytes:       sres.AddedBytes,
	}
}
