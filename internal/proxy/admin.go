package proxy

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/features"
	"botdetect/internal/policy"
	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/telemetry"
)

// AdminConfig controls the operations endpoints.
type AdminConfig struct {
	// Engine is the detection engine to expose; required.
	Engine *core.Engine
	// Policy optionally enables the verdict-override endpoint to block
	// sessions immediately.
	Policy *policy.Engine
	// EnablePprof mounts net/http/pprof under <prefix>/debug/pprof/. Off by
	// default: profiling endpoints can stall the process and leak internals.
	EnablePprof bool
	// AuthToken, when non-empty, requires every admin request — metrics,
	// status and pprof included — to present it as
	// "Authorization: Bearer <token>" (compared in constant time). It is
	// mandatory whenever the surface is reachable by untrusted clients:
	// without it, anyone can POST an override to clear CAPTCHA/block state
	// (a bot self-whitelisting) and poison the online trainer with false
	// labels, and the status/session views expose every tracked client's IP
	// and User-Agent. When empty — sound only on a loopback-bound listener —
	// requests carrying an Origin header are refused, so a CSRF form post
	// riding an operator's browser cannot reach the mutating endpoints.
	AuthToken string
	// Breaker optionally exposes the reverse proxy's origin circuit breaker
	// on the status page (Middleware.Breaker()).
	Breaker *Breaker
}

// Admin bundles the proxy's operational endpoints — Prometheus metrics, the
// live status page, session inspection, and mutating controls (script
// rotation, retraining, verdict overrides) — behind one registration call so
// deployments cannot end up with half the surface mounted.
type Admin struct {
	cfg AdminConfig
}

// NewAdmin builds the admin surface. It panics if cfg.Engine is nil.
func NewAdmin(cfg AdminConfig) *Admin {
	if cfg.Engine == nil {
		panic("proxy: AdminConfig.Engine is required")
	}
	return &Admin{cfg: cfg}
}

// Register mounts every admin endpoint on mux, each behind the access guard.
// Each route is an exact path (no subtree registrations except pprof), so
// the detection middleware keeps receiving all other traffic under the
// beacon prefix — beacons and admin endpoints share the reserved subtree
// without shadowing each other.
func (a *Admin) Register(mux *http.ServeMux) {
	// Every admin endpoint lives under the engine's beacon prefix, so the
	// whole control surface is one reserved subtree (the CDN strips it
	// before the origin ever sees it).
	p := a.cfg.Engine.Config().BeaconPrefix
	mux.Handle(p+"/metrics", a.guard(http.HandlerFunc(a.handleMetrics)))
	mux.Handle(p+"/status", a.guard(http.HandlerFunc(a.handleStatus)))
	mux.Handle(p+"/admin/session", a.guard(http.HandlerFunc(a.handleSession)))
	mux.Handle(p+"/admin/rotate", a.guard(http.HandlerFunc(a.handleRotate)))
	mux.Handle(p+"/admin/retrain", a.guard(http.HandlerFunc(a.handleRetrain)))
	mux.Handle(p+"/admin/override", a.guard(http.HandlerFunc(a.handleOverride)))
	mux.Handle(p+"/admin/load", a.guard(http.HandlerFunc(a.handleLoad)))
	if a.cfg.EnablePprof {
		// pprof.Index parses the profile name out of the URL assuming it is
		// mounted at /debug/pprof/, so the admin prefix must be stripped
		// before the handlers run.
		mux.Handle(p+"/debug/pprof/", a.guard(http.StripPrefix(p, http.HandlerFunc(pprof.Index))))
		mux.Handle(p+"/debug/pprof/cmdline", a.guard(http.StripPrefix(p, http.HandlerFunc(pprof.Cmdline))))
		mux.Handle(p+"/debug/pprof/profile", a.guard(http.StripPrefix(p, http.HandlerFunc(pprof.Profile))))
		mux.Handle(p+"/debug/pprof/symbol", a.guard(http.StripPrefix(p, http.HandlerFunc(pprof.Symbol))))
		mux.Handle(p+"/debug/pprof/trace", a.guard(http.StripPrefix(p, http.HandlerFunc(pprof.Trace))))
	}
}

// guard enforces the surface's access rules in front of every handler. With
// an AuthToken configured, the bearer token is checked in constant time.
// Without one, the deployment is trusted to have bound the surface to a
// loopback-only listener, and the remaining browser vector — a hostile page
// making an operator's browser post to localhost — is closed by refusing any
// request that carries an Origin header: browsers attach it to cross-site
// requests, operator tools (curl, Prometheus) never send it.
func (a *Admin) guard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.cfg.AuthToken == "" {
			if r.Header.Get("Origin") != "" {
				http.Error(w, "cross-origin admin request rejected", http.StatusForbidden)
				return
			}
			h.ServeHTTP(w, r)
			return
		}
		const scheme = "Bearer "
		auth := r.Header.Get("Authorization")
		if len(auth) <= len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) ||
			subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(a.cfg.AuthToken)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="botdetect admin"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// handleMetrics renders the engine's telemetry registry in the Prometheus
// text exposition format. The scrape never blocks serving: counters and
// histograms are read with atomic loads while writers keep writing.
func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = a.cfg.Engine.Telemetry().Registry().WritePrometheus(w)
}

// handleStatus renders the plain-text operator overview: the verdict table,
// model state, instrumentation counters, and the busiest live sessions with
// their verdicts.
func (a *Admin) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	det := a.cfg.Engine
	stats := det.Stats()
	fmt.Fprintln(w, "verdict table (the first row that fires decides):")
	for _, r := range det.Detector().Rows().Rules() {
		outcome := r.Class().String() + "/" + r.Confidence().String()
		if r == detect.RuleRemote {
			outcome = "the origin's row"
		}
		fmt.Fprintf(w, "  %2d %-16s %s\n", r, r.Name(), outcome)
	}
	if m := det.Model(); m != nil {
		fmt.Fprintf(w, "learned model: %s (%d labelled outcomes buffered)\n", m, det.OutcomeCount())
	} else {
		fmt.Fprintf(w, "learned model: none yet (%d labelled outcomes buffered)\n", det.OutcomeCount())
	}
	loadLine := fmt.Sprintf("load state: %s (occupancy %.1f%%", det.LoadState(), det.LoadOccupancy()*100)
	if budget := det.MemoryBudget(); budget > 0 {
		loadLine += fmt.Sprintf(", memory %d/%d bytes", det.MemoryEstimate(), budget)
	} else {
		loadLine += fmt.Sprintf(", memory %d bytes", det.MemoryEstimate())
	}
	if forced, ok := det.LoadForced(); ok {
		loadLine += fmt.Sprintf(", FORCED to %s by operator drill", forced)
	}
	fmt.Fprintf(w, "%s)\n", loadLine)
	// Heap dominators: where the attacker-controlled bytes actually live,
	// itemised per component with a per-session quotient against the 2 KiB
	// budget the million-session plan is built on.
	sessBytes, keyBytes, internBytes := det.MemoryBreakdown()
	ist := det.InternStats()
	domLine := fmt.Sprintf("heap dominators: sessions=%d keystore=%d interned=%d bytes", sessBytes, keyBytes, internBytes)
	if n := det.SessionCount(); n > 0 {
		domLine += fmt.Sprintf(" (%d B/session over %d sessions)", det.MemoryEstimate()/int64(n), n)
	}
	fmt.Fprintf(w, "%s\n", domLine)
	fmt.Fprintf(w, "sessions: %d tracked, %d with one request\n", det.SessionCount(), det.OneRequestSessions())
	// The process's memory ledger: its resident memory, what the Go runtime
	// mapped, the tables' arena, and the resident memory past the arena,
	// the heap objects and the stacks.
	ledger := telemetry.ReadMemoryLedger()
	_, arena := shard.ArenaBytes()
	fmt.Fprintf(w, "process resident: anon=%d file=%d bytes\n", ledger.ResidentAnon, ledger.ResidentFile)
	fmt.Fprint(w, "  go runtime:")
	for i, class := range telemetry.GoMemoryClasses {
		fmt.Fprintf(w, " %s=%d", class, ledger.Go[i])
	}
	fmt.Fprintf(w, "\n  table arena touched=%d\n  residual (anon past the arena, heap objects and stacks)=%d\n", arena, ledger.Residual(arena))
	fmt.Fprintf(w, "interner: %d strings, %d bytes, hit rate %.1f%%\n",
		ist.Entries, ist.Bytes, ist.HitRate()*100)
	fmt.Fprintf(w, "load shed: passthrough=%d degraded=%d\n", stats.ShedPassThrough, stats.ShedDegraded)
	ev := det.EvictionStats()
	fmt.Fprintf(w, "sessions evicted: idle=%d capacity-anonymous=%d capacity-evidence=%d flush=%d\n",
		ev.Idle, ev.CapacityAnonymous, ev.CapacityEvidence, ev.Flush)
	if a.cfg.Breaker != nil {
		b := a.cfg.Breaker
		fmt.Fprintf(w, "origin breaker: %s (opens=%d probes=%d recoveries=%d short-circuits=%d)\n",
			b.State(), b.opens.Load(), b.probes.Load(), b.recoveries.Load(), b.shortCircuits.Load())
	}
	fmt.Fprintf(w, "pages instrumented: %d\n", stats.PagesInstrumented)
	fmt.Fprintf(w, "pages lite (definite humans, hidden link only): %d\n", stats.PagesLite)
	fmt.Fprintf(w, "beacons: mouse=%d decoy=%d replay=%d exec=%d css=%d hidden=%d ua-mismatch=%d\n",
		stats.MouseBeacons, stats.DecoyBeacons, stats.ReplayBeacons, stats.ExecBeacons,
		stats.CSSBeacons, stats.HiddenHits, stats.UAMismatches)
	sessions := det.Sessions()
	sort.Slice(sessions, func(i, j int) bool {
		return sessions[i].Snapshot.Counts.Total > sessions[j].Snapshot.Counts.Total
	})
	fmt.Fprintf(w, "active sessions: %d\n\n", len(sessions))
	for i, cs := range sessions {
		if i >= 50 {
			fmt.Fprintf(w, "... and %d more\n", len(sessions)-i)
			break
		}
		s := &cs.Snapshot
		fmt.Fprintf(w, "%-18s %-40.40s reqs=%-5d %s\n", s.Key.IP, s.Key.UserAgent, s.Counts.Total, cs.Verdict)
	}
}

// sessionView is the JSON shape of one inspected session.
type sessionView struct {
	IP        string           `json:"ip"`
	UserAgent string           `json:"user_agent"`
	FirstSeen time.Time        `json:"first_seen"`
	LastSeen  time.Time        `json:"last_seen"`
	Requests  int64            `json:"requests"`
	Verdict   verdictView      `json:"verdict"`
	Features  []featureView    `json:"features"`
	Signals   map[string]int64 `json:"signals,omitempty"`
	Policy    *policyStageView `json:"policy,omitempty"`
}

type verdictView struct {
	Class      string `json:"class"`
	Confidence string `json:"confidence"`
	Rule       string `json:"rule"`
	Reason     string `json:"reason"`
	AtRequest  int64  `json:"at_request"`
	Origin     string `json:"origin,omitempty"`
}

type featureView struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type policyStageView struct {
	Stage string `json:"stage"`
}

// handleSession inspects one live session: GET with ip and ua query
// parameters returns the cached verdict, the Table 2 feature vector by
// attribute name, observed detection signals, and the policy stage.
func (a *Admin) handleSession(w http.ResponseWriter, r *http.Request) {
	key, ok := a.sessionKey(w, r)
	if !ok {
		return
	}
	snap, verdict, tracked := a.cfg.Engine.Decide(key)
	if !tracked {
		http.Error(w, "unknown session", http.StatusNotFound)
		return
	}
	view := sessionView{
		IP:        snap.Key.IP,
		UserAgent: snap.Key.UserAgent,
		FirstSeen: snap.FirstSeen,
		LastSeen:  snap.LastSeen,
		Requests:  int64(snap.Counts.Total),
		Verdict: verdictView{
			Class:      verdict.Class.String(),
			Confidence: verdict.Confidence.String(),
			Rule:       verdict.Rule.Name(),
			Reason:     verdict.Reason(),
			AtRequest:  verdict.AtRequest,
			Origin:     verdict.Origin,
		},
		Features: make([]featureView, 0, len(features.Names)),
	}
	x := snap.Counts.Vector()
	for i, name := range features.Names {
		view.Features = append(view.Features, featureView{Name: name, Value: x[i]})
	}
	if snap.Signals.Any() {
		view.Signals = make(map[string]int64, snap.Signals.Count())
		snap.Signals.Each(func(sig session.Signal, at int64) bool {
			view.Signals[sig.String()] = at
			return true
		})
	}
	snap.Release()
	if a.cfg.Policy != nil {
		view.Policy = &policyStageView{Stage: a.cfg.Policy.StageOf(key).String()}
	}
	writeJSON(w, http.StatusOK, view)
}

// handleRotate regenerates the per-epoch script variant pool on demand (the
// same rotation the background ticker performs), invalidating any URLs and
// decoy names a robot may have scraped.
func (a *Admin) handleRotate(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	a.cfg.Engine.RotateScripts()
	writeJSON(w, http.StatusOK, map[string]any{
		"rotated":  true,
		"variants": a.cfg.Engine.ScriptVariants(),
	})
}

// handleRetrain refits the AdaBoost ensemble from the buffered labelled
// outcomes and hot-swaps it onto the serving path, without waiting for the
// online trainer's next tick.
func (a *Admin) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	model, err := a.cfg.Engine.RetrainFromOutcomes()
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":    model.String(),
		"epoch":    a.cfg.Engine.Learned().Epoch(),
		"outcomes": a.cfg.Engine.OutcomeCount(),
	})
}

// handleOverride lets an operator assert ground truth for a session: POST
// with ip, ua and verdict=human|robot. A human override clears CAPTCHA state
// and de-escalates policy; a robot override blocks immediately when a policy
// engine is attached. Either way the label feeds the online trainer.
func (a *Admin) handleOverride(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	key, ok := a.sessionKey(w, r)
	if !ok {
		return
	}
	verdict := r.FormValue("verdict")
	switch verdict {
	case "human":
		a.cfg.Engine.MarkCaptchaPassed(key)
		a.cfg.Engine.RecordOutcome(key, true)
	case "robot":
		if a.cfg.Policy != nil {
			a.cfg.Policy.BlockNow(key)
		}
		a.cfg.Engine.RecordOutcome(key, false)
	default:
		http.Error(w, "verdict must be human or robot", http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ip": key.IP, "verdict": verdict})
}

// handleLoad runs operator degradation drills: POST with
// mode=normal|pressured|saturated pins the engine's load state regardless of
// occupancy ("what does my site look like degraded?"), and mode=auto clears
// the pin, returning admission control to the occupancy-derived ladder.
func (a *Admin) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	det := a.cfg.Engine
	switch mode := r.FormValue("mode"); mode {
	case "normal":
		det.ForceLoadState(core.LoadNormal)
	case "pressured":
		det.ForceLoadState(core.LoadPressured)
	case "saturated":
		det.ForceLoadState(core.LoadSaturated)
	case "auto":
		det.ClearForcedLoadState()
	default:
		http.Error(w, "mode must be normal, pressured, saturated or auto", http.StatusBadRequest)
		return
	}
	_, forced := det.LoadForced()
	writeJSON(w, http.StatusOK, map[string]any{
		"state":     det.LoadState().String(),
		"forced":    forced,
		"occupancy": det.LoadOccupancy(),
	})
}

// sessionKey extracts the session key from ip/ua parameters (query or form).
func (a *Admin) sessionKey(w http.ResponseWriter, r *http.Request) (session.Key, bool) {
	ip := r.FormValue("ip")
	if ip == "" {
		http.Error(w, "missing ip parameter", http.StatusBadRequest)
		return session.Key{}, false
	}
	return session.Key{IP: ip, UserAgent: r.FormValue("ua")}, true
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
