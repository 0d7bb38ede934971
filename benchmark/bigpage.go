package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/proxy"
	"botdetect/internal/rng"
)

// bigpage_origin: botproxy as an instrumenting reverse proxy in front of an
// origin this file provides. It is the bytes workload: 70 % of requests are
// HTML documents of about 20 KB or 240 KB with inline script and style raw
// text, the rest opaque objects of 8–64 KB that must pass through untouched.
// What it loads is the streaming rewriter's scan rate, vectored writes, the
// upstream transport and its connection pool; per-request engine cost is
// noise here, so an engine optimisation must predict no change.
//
// The 500 clients never fetch the injected objects, so the engine comes to
// judge them robots; enforcement is off (-policy=false) because refusing them
// is not what this workload measures.

const (
	bigCapacity   = 2400 // requests per second two connections carry when the machine is at its slowest
	bigClosedRate = 3000 // sizes the closed-loop slices: about what they complete per second
	bigClients    = 500
	smallDocs     = 12
	smallDocSize  = 20 << 10
	largeDocs     = 4
	largeDocSize  = 240 << 10
	objectCount   = 8
	originChunk   = 16 << 10 // the stub origin writes bodies in pieces this big
)

var bigRates = rates{lo: 600, mid: 1200, hi: 1800} // requests per second: 25/50/75 % of bigCapacity

// corpusDoc is one origin document with its prebuilt wire response.
type corpusDoc struct {
	path string
	want expected
	wire []byte // status line, headers and body, as the stub origin sends it
}

// corpusSource is the random source the corpus filler is drawn from. Like
// the built-in site, the corpus is the content under test and a constant.
func corpusSource() *rng.Source { return rng.New(siteSeed).Fork("corpus") }

// buildCorpus makes the origin's documents.
func buildCorpus() (html, objects []*corpusDoc) {
	src := corpusSource()
	for i := 0; i < smallDocs+largeDocs; i++ {
		size := smallDocSize
		if i >= smallDocs {
			size = largeDocSize
		}
		body := renderDoc(src.Split(), i, size)
		html = append(html, newCorpusDoc(fmt.Sprintf("/doc/%d.html", i), "text/html; charset=utf-8", body, true))
	}
	for i := 0; i < objectCount; i++ {
		body := make([]byte, (i+1)*(8<<10))
		s := src.Split()
		for j := 0; j+8 <= len(body); j += 8 {
			v := s.Uint64()
			for b := 0; b < 8; b++ {
				body[j+b] = byte(v >> (8 * b))
			}
		}
		objects = append(objects, newCorpusDoc(fmt.Sprintf("/obj/%d.bin", i), "application/octet-stream", body, false))
	}
	return html, objects
}

func newCorpusDoc(path, contentType string, body []byte, instrumented bool) *corpusDoc {
	var wire bytes.Buffer
	fmt.Fprintf(&wire, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", contentType, len(body))
	wire.Write(body)
	return &corpusDoc{
		path: path,
		want: expected{status: 200, contentType: contentType, body: body, instrumented: instrumented},
		wire: wire.Bytes(),
	}
}

var fillerWords = strings.Fields("proxy session robot human browser script beacon origin cache request response header stream rewrite token anchor content network server client page image style mouse event key decoy crawler")

// renderDoc writes an HTML document of about size bytes: a head with an
// inline stylesheet, then sections of paragraphs, links and images with an
// inline script every few sections. The raw-text blocks hold '<', '>' and
// quote characters the scanner must not mistake for markup.
func renderDoc(src *rng.Source, n, size int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>Document %d</title>\n<style type=\"text/css\">\n", n)
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, ".c%d > p::after { content: \"</p><p>\"; margin: %dpx; } /* a < b > c */\n", i, src.Intn(40))
	}
	b.WriteString("</style>\n</head>\n<body>\n")
	for section := 0; b.Len() < size-200; section++ {
		fmt.Fprintf(&b, "<div class=\"c%d\" id=\"s%d\">\n<h2>Section %d</h2>\n", section%24, section, section)
		for p := 0; p < 3; p++ {
			b.WriteString("<p>")
			for w := 0; w < 60+src.Intn(60); w++ {
				b.WriteString(fillerWords[src.Intn(len(fillerWords))])
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "<a href=\"/doc/%d.html\">more</a></p>\n", src.Intn(smallDocs+largeDocs))
		}
		fmt.Fprintf(&b, "<img src=\"/obj/%d.bin\" alt=\"figure %d\" width=\"%d\">\n", src.Intn(objectCount), section, 100+src.Intn(400))
		if section%4 == 3 {
			fmt.Fprintf(&b, "<script type=\"text/javascript\">\nvar t%d = \"<div>\" + (1 < 2 ? '</body>' : \"<head>\") + %d;\nif (t%d.length > 3 && 2 > 1) { t%d += '</' + 'script>'; }\n</script>\n",
				section, src.Intn(1<<20), section, section)
		}
		b.WriteString("</div>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.Bytes()
}

// stubOrigin is the benchmark-owned origin server: it answers GETs for corpus
// paths with prebuilt responses over keep-alive connections. It is raw
// sockets for the same reason the client is — it shares the generator's CPU.
type stubOrigin struct {
	ln    net.Listener
	docs  map[string]*corpusDoc
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func startStubOrigin(docs []*corpusDoc) (*stubOrigin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &stubOrigin{ln: ln, docs: make(map[string]*corpusDoc), conns: make(map[net.Conn]struct{})}
	for _, d := range docs {
		o.docs[d.path] = d
	}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener was closed by stop
			}
			o.mu.Lock()
			o.conns[c] = struct{}{}
			o.mu.Unlock()
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				o.serve(c)
			}()
		}
	}()
	return o, nil
}

func (o *stubOrigin) url() string { return "http://" + o.ln.Addr().String() }

// stop closes the listener and every connection, and waits for the serving
// goroutines to end.
func (o *stubOrigin) stop() {
	_ = o.ln.Close() // the only error is "already closed"
	o.mu.Lock()
	for c := range o.conns {
		_ = c.Close() // unblocks its reader; the connection is being abandoned
	}
	o.mu.Unlock()
	o.wg.Wait()
}

var notFoundWire = []byte("HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\r\nnot found\n")

func (o *stubOrigin) serve(c net.Conn) {
	defer func() {
		_ = c.Close() // nothing buffered on this side
		o.mu.Lock()
		delete(o.conns, c)
		o.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 4<<10)
	for {
		line, err := readLine(br)
		if err != nil {
			return // the proxy closed an idle connection
		}
		// "GET /doc/3.html HTTP/1.1"
		parts := strings.SplitN(string(line), " ", 3)
		for {
			if line, err = readLine(br); err != nil {
				return
			}
			if len(line) == 0 {
				break
			}
		}
		wire := notFoundWire
		if len(parts) == 3 && parts[0] == "GET" {
			if d := o.docs[parts[1]]; d != nil {
				wire = d.wire
			}
		}
		for len(wire) > 0 {
			n := len(wire)
			if n > originChunk {
				n = originChunk
			}
			if _, err := c.Write(wire[:n]); err != nil {
				return
			}
			wire = wire[n:]
		}
	}
}

type bigpageWorkload struct {
	html, objects []*corpusDoc
	origin        *stubOrigin
	uas, ips      []string
	identities    [][]byte
	draws         []*corpusDoc // the document of arrival k is draws[k mod len]
	order         []int        // the client of arrival k is order[k mod len]
}

// draw is arrival k's planned request: which client asks for which document.
// The two cycles have different lengths, so over a run every client comes to
// ask for most of the documents.
func (b *bigpageWorkload) draw(k int64) (client int, doc *corpusDoc) {
	return b.order[k%int64(len(b.order))], b.draws[k%int64(len(b.draws))]
}

func newBigpage(seed uint64) *bigpageWorkload {
	b := &bigpageWorkload{}
	b.html, b.objects = buildCorpus()
	for i := 0; i < bigClients; i++ {
		ua := "Mozilla/5.0 (X11; U; Linux i686; en-US; rv:1.7.12) Gecko/20051010 Firefox/1.0." + strconv.Itoa(i%8)
		ip := fmt.Sprintf("10.9.%d.%d", i/250, 1+i%250)
		b.uas, b.ips = append(b.uas, ua), append(b.ips, ip)
		b.identities = append(b.identities, identityHeaders(ua, ip))
	}
	// 70 % HTML (three in four of those the small documents), 30 % objects,
	// each kind spread evenly over its documents; the seed shuffles the order
	// of the documents and of the clients (see shuffledShares), who take
	// turns. The table is short next to
	// the run, so the run is many whole passes over it and the odd end — whose
	// share of 240 KB documents is left to chance — is a small part.
	src := rng.New(seed).Fork("bigpage-draws")
	var docs []*corpusDoc
	var weights []float64
	for _, kind := range []struct {
		docs  []*corpusDoc
		share float64
	}{{b.html[:smallDocs], 0.7 * 0.75}, {b.html[smallDocs:], 0.7 * 0.25}, {b.objects, 0.3}} {
		for _, d := range kind.docs {
			docs = append(docs, d)
			weights = append(weights, kind.share/float64(len(kind.docs)))
		}
	}
	for _, i := range shuffledShares(src, weights, 1<<11) {
		b.draws = append(b.draws, docs[i])
	}
	b.order = src.Perm(bigClients)
	return b
}

func (b *bigpageWorkload) start() ([]string, error) {
	origin, err := startStubOrigin(append(append([]*corpusDoc(nil), b.html...), b.objects...))
	if err != nil {
		return nil, err
	}
	b.origin = origin
	return []string{
		"-origin", origin.url(), "-seed", fmt.Sprint(siteSeed),
		"-policy=false", "-captcha=false", "-train=false",
	}, nil
}

func (b *bigpageWorkload) stop() {
	if b.origin != nil {
		b.origin.stop()
	}
}

func (b *bigpageWorkload) rates() rates            { return bigRates }
func (b *bigpageWorkload) latencyLimitUs() float64 { return 20000 }

func (b *bigpageWorkload) plan(seconds float64, trace bool) phasePlan {
	return sizePlan(seconds, trace, 1, sliceCount(seconds), bigClosedRate)
}

func (b *bigpageWorkload) reset() {}

func (b *bigpageWorkload) probe(w *worker) error {
	d := b.html[0]
	if _, ok := w.exchange(d.path, identityHeaders("probe", "127.0.0.9"), "", &d.want); !ok {
		return fmt.Errorf("probe of %s failed: %v", d.path, w.chk.reasons)
	}
	return nil
}

func (b *bigpageWorkload) unit() unit {
	return func(w *worker, k int64) {
		client, doc := b.draw(k)
		w.exchange(doc.path, b.identities[client], "", &doc.want)
	}
}

// warm has every client make two requests, so every session exists before
// anything is measured.
func (b *bigpageWorkload) warm(g *loadgen) {
	base := g.next.Load()
	g.runCount(2*bigClients, 0, func(w *worker, k int64) {
		i := int(k - base)
		d := b.html[i%smallDocs]
		w.exchange(d.path, b.identities[i%bigClients], "", &d.want)
	})
}

func (b *bigpageWorkload) verify(g *loadgen, _ *wireConn, scraped map[string]float64, fail func(string)) {
	// Every client plus the readiness probe, nothing refused or shed.
	if got := int64(scraped["botdetect_sessions_active"]); got != bigClients+1 {
		fail(fmt.Sprintf("sessions_active %d, want %d", got, bigClients+1))
	}
	if scraped["botdetect_load_state"] != 0 {
		fail("load state left normal")
	}
}

func (b *bigpageWorkload) quality() (float64, float64, bool) { return 0, 0, false }

// replaySpec sends the planned requests through an in-process reverse-proxy
// middleware in front of a stub origin of its own, enforcement off as on the
// wire.
func (b *bigpageWorkload) replaySpec(seconds float64) replaySpec {
	docs := make(map[string]*corpusDoc)
	for _, d := range append(append([]*corpusDoc(nil), b.html...), b.objects...) {
		docs[d.path] = d
	}
	origin := func(path string) (int, string, []byte) {
		if d := docs[path]; d != nil {
			return d.want.status, d.want.contentType, d.want.body
		}
		return 404, "text/plain", []byte("not found\n")
	}
	return replaySpec{surface: "proxy", build: func() replayWorld {
		stub, err := startStubOrigin(append(append([]*corpusDoc(nil), b.html...), b.objects...))
		if err != nil {
			panic(fmt.Sprintf("bigpage replay: stub origin: %v", err)) // loopback listen cannot fail on a working host
		}
		u, _ := url.Parse(stub.url()) // built from a listener address
		eng := newProxyEngine()
		mw := proxy.NewReverseProxy(u, proxy.Config{Engine: eng, TrustForwardedFor: true})
		requests := int(250 * seconds)
		drive := func(c *tracedClient) {
			for k := 0; k < requests; k++ {
				client, doc := b.draw(int64(k))
				c.Do(agents.Request{Time: time.Now(), IP: b.ips[client], UserAgent: b.uas[client], Method: "GET", Path: doc.path})
			}
		}
		return replayWorld{surface: newMWSurface(mw), engines: []*core.Engine{eng}, route: singleNode, origin: origin, drive: drive, cleanup: stub.stop}
	}}
}

func (b *bigpageWorkload) probeRequest() agents.Request {
	return agents.Request{Time: time.Now(), Method: "GET", Path: b.html[0].path}
}
