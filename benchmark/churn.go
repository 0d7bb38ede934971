package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/rng"
	"botdetect/internal/webmodel"
)

// churn_cold: every request comes from a client the server has never seen —
// a fresh X-Forwarded-For address, a User-Agent out of a pool of 64 — and is
// a single page view with no follow-up. The session table, the keystore and
// the interner only ever create; nothing is ever looked up warm.
//
// The default keystore holds 100,000 clients and the engine leaves its normal
// load state at 75 % of that, so one server may see fewer than 75,000
// distinct addresses before it starts degrading newcomers. A run therefore
// uses several short-lived servers, each given a fixed number of clients
// safely under that line, and the checks assert the ladder never moved.

const (
	// churnCapacity is the closed-loop capacity in clients per second that
	// the phase sizes and the frozen rates are derived from.
	churnCapacity = 12000
	// churnBudget is the most clients one server generation may be sent, and
	// churnGeneration how many its phases are sized for; the difference
	// covers the warm-up, the readiness probe and rounding.
	churnBudget     = 68000
	churnGeneration = 65000
	churnWarm       = 1000
	churnAgents     = 64
)

var churnRates = rates{lo: 3000, mid: 6000, hi: 9000} // clients per second: 25/50/75 % of churnCapacity

type churnWorkload struct {
	seed   uint64
	site   *webmodel.Site
	pages  []expected // instrumented pages, by site page index
	paths  []string
	uas    []string // the User-Agent pool
	agents [][]byte // "User-Agent: ...\r\nX-Forwarded-For: " prefixes, one per pool entry
	draws  []uint16 // page index per arrival, cycled
	ipMix  uint32
}

func newChurn(seed uint64) *churnWorkload {
	c := &churnWorkload{seed: seed, site: builtinSite()}
	for _, p := range c.site.Pages() {
		c.paths = append(c.paths, p.Path)
		c.pages = append(c.pages, siteExpectation(c.site, p.Path))
	}
	src := rng.New(seed).Fork("churn")
	for i := 0; i < churnAgents; i++ {
		ua := fmt.Sprintf("Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.%d) Gecko/2006%04d Firefox/1.5.0.%d", i%16, 101+i, i%9)
		c.uas = append(c.uas, ua)
		c.agents = append(c.agents, []byte("User-Agent: "+ua+"\r\nX-Forwarded-For: "))
	}
	// Page popularity is Zipf with the site model's own skew; the seed
	// shuffles the visits, it does not redraw them (see shuffledShares).
	weights := make([]float64, len(c.paths))
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.9)
	}
	c.draws = make([]uint16, 0, 1<<16)
	for _, page := range shuffledShares(src.Split(), weights, 1<<16) {
		c.draws = append(c.draws, uint16(page))
	}
	c.ipMix = uint32(src.Uint64())
	return c
}

func (c *churnWorkload) start() ([]string, error) { return builtinFlags(), nil }
func (c *churnWorkload) stop()                    {}
func (c *churnWorkload) rates() rates             { return churnRates }
func (c *churnWorkload) latencyLimitUs() float64  { return 2000 }

// plan spreads a run over as many server generations as keep each under
// churnBudget clients: three of 64,000 at the declared 20 seconds, more for a
// longer run. A traced run spends three quarters of its time on the wire.
func (c *churnWorkload) plan(seconds float64, trace bool) phasePlan {
	if trace {
		seconds *= 0.75
	}
	clients := arrivalsPerSecond(trace, churnCapacity, churnRates) * seconds
	generations := int(math.Ceil(clients / churnGeneration))
	if generations < 1 {
		generations = 1
	}
	slices := sliceCount(seconds) / generations
	if slices < 1 {
		slices = 1
	}
	return sizePlan(seconds, trace, generations, slices, churnCapacity)
}

func (c *churnWorkload) reset() {}

// agentOf picks client k's User-Agent out of the pool.
func agentOf(k int64) int { return int(uint64(k) * 0x9e3779b97f4a7c15 >> 58) }

// appendIP appends client k's address: one no other arrival of the run uses
// (k ↦ k·odd + mix is a bijection on 32 bits).
func (c *churnWorkload) appendIP(buf []byte, k int64) []byte {
	v := uint32(k)*2654435761 + c.ipMix
	buf = strconv.AppendUint(buf, uint64(v>>24), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(v>>16&0xff), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(v>>8&0xff), 10)
	buf = append(buf, '.')
	return strconv.AppendUint(buf, uint64(v&0xff), 10)
}

// identity writes client k's header block into buf.
func (c *churnWorkload) identity(buf []byte, k int64) []byte {
	buf = append(buf[:0], c.agents[agentOf(k)]...)
	return append(c.appendIP(buf, k), "\r\n"...)
}

func (c *churnWorkload) probe(w *worker) error {
	// The probe's client is one of the run's own (arrival -1), so the final
	// session count stays exact.
	if _, ok := w.exchange(c.paths[0], c.identity(nil, -1), "", &c.pages[0]); !ok {
		return fmt.Errorf("probe of %s failed: %v", c.paths[0], w.chk.reasons)
	}
	return nil
}

func (c *churnWorkload) unit() unit {
	return func(w *worker, k int64) {
		page := c.draws[k&int64(len(c.draws)-1)]
		w.scratch = c.identity(w.scratch, k)
		w.exchange(c.paths[page], w.scratch, "", &c.pages[page])
	}
}

func (c *churnWorkload) warm(g *loadgen) { g.runCount(churnWarm, 0, c.unit()) }

// verify checks that the server tracked exactly the clients it was sent and
// that its load ladder never left normal.
func (c *churnWorkload) verify(g *loadgen, _ *wireConn, scraped map[string]float64, fail func(string)) {
	sent := g.next.Load() + 1 // arrivals plus the readiness probe
	if sent > churnBudget {
		fail(fmt.Sprintf("generation sent %d clients, over the %d budget", sent, churnBudget))
	}
	if got := int64(scraped["botdetect_sessions_active"]); got != sent {
		fail(fmt.Sprintf("sessions_active %d, clients sent %d", got, sent))
	}
	if scraped["botdetect_load_state"] != 0 {
		fail("load state left normal")
	}
	if shed := sumSeries(scraped, "botdetect_load_shed_total"); shed != 0 {
		fail(fmt.Sprintf("load shed %v page views", shed))
	}
}

func (c *churnWorkload) quality() (float64, float64, bool) { return 0, 0, false }

// replaySpec sends the same never-seen clients, one page each, through an
// in-process middleware. The count stays under the keystore's pressure line,
// as on the wire.
func (c *churnWorkload) replaySpec(seconds float64) replaySpec {
	return replaySpec{surface: "proxy", build: func() replayWorld {
		mw, eng := newBuiltinMiddleware(c.site)
		clients := int64(2500 * seconds)
		if clients > churnBudget {
			clients = churnBudget
		}
		drive := func(tc *tracedClient) {
			var ip []byte
			for k := int64(0); k < clients; k++ {
				ip = c.appendIP(ip[:0], k)
				tc.Do(agents.Request{
					Time: time.Now(), IP: string(ip), UserAgent: c.uas[agentOf(k)],
					Method: "GET", Path: c.paths[c.draws[k&int64(len(c.draws)-1)]],
				})
			}
		}
		return replayWorld{surface: newMWSurface(mw), engines: []*core.Engine{eng}, withPolicy: true, route: singleNode, origin: siteOrigin(c.site), drive: drive}
	}}
}

func (c *churnWorkload) probeRequest() agents.Request {
	return agents.Request{Time: time.Now(), Method: "GET", Path: c.paths[0]}
}
