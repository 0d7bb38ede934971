// Command botproxy runs the robot-detecting proxy. By default it serves a
// built-in synthetic site through the detection middleware; with -origin it
// instead acts as an instrumenting reverse proxy in front of an existing
// origin server, the deployment shape the paper used on CoDeeN nodes.
//
// Usage:
//
//	botproxy [-addr :8080] [-origin http://upstream:9090] [-decoys 4]
//	         [-obfuscate] [-policy] [-captcha] [-pprof]
//	         [-admin-addr 127.0.0.1:8081] [-admin-token T] [-admin-public]
//	         [-max-sessions N] [-memory-budget BYTES]
//	         [-upstream-dial-timeout 5s] [-upstream-header-timeout 15s]
//	         [-upstream-request-timeout 60s] [-upstream-retries 2]
//	         [-breaker-failures 5] [-breaker-cooldown 10s]
//
// The /__bd/ path prefix is reserved for instrumentation (beacons, generated
// stylesheets and scripts, hidden links, CAPTCHA endpoints). The admin
// surface — /__bd/status (plain-text sessions and verdicts), /__bd/metrics
// (Prometheus text format), /__bd/admin/* (session inspection, script
// rotation, retraining, verdict overrides) and, behind -pprof,
// /__bd/debug/pprof/ — serves on its own listener, loopback by default
// (-admin-addr), never on the public listener unless -admin-public is given
// together with a mandatory -admin-token bearer token: the override endpoint
// asserts ground truth (a bot could whitelist itself and poison the online
// trainer) and the status views carry client IPs and User-Agents.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/captcha"
	"botdetect/internal/core"
	"botdetect/internal/keystore"
	"botdetect/internal/policy"
	"botdetect/internal/proxy"
	"botdetect/internal/webmodel"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		origin      = flag.String("origin", "", "upstream origin URL (empty: serve the built-in synthetic site)")
		decoys      = flag.Int("decoys", 4, fmt.Sprintf("decoy beacon functions per page (at most %d; larger values are clamped)", keystore.MaxDecoys))
		obfuscate   = flag.Bool("obfuscate", true, "lexically obfuscate the generated JavaScript")
		withPol     = flag.Bool("policy", true, "enable rate limiting / blocking of robot sessions")
		withCap     = flag.Bool("captcha", true, "enable CAPTCHA endpoints under /__bd/captcha/")
		seed        = flag.Uint64("seed", uint64(time.Now().UnixNano()), "random seed for keys and scripts")
		pages       = flag.Int("pages", 200, "pages in the built-in synthetic site (ignored with -origin)")
		train       = flag.Bool("train", true, "retrain the AdaBoost model online from labelled outcomes and hot-swap it")
		trainEvery  = flag.Duration("train-every", time.Minute, "how often the online trainer checks for new outcomes")
		trainMinNew = flag.Int("train-min-new", 64, "minimum new labelled outcomes before a retrain")
		rotEvery    = flag.Duration("rotate-every", 0, "rotate the script-generation seed on this interval (0 disables timed rotation)")
		rotPages    = flag.Int64("rotate-pages", 0, "rotate the script-generation seed after this many pages served (0 disables count-based rotation)")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof under /__bd/debug/pprof/")
		adminAddr   = flag.String("admin-addr", "127.0.0.1:8081", "listen address for the admin surface (loopback by default; empty disables the admin listener)")
		adminToken  = flag.String("admin-token", "", "bearer token required on every admin request (Authorization: Bearer <token>)")
		adminPublic = flag.Bool("admin-public", false, "also mount the admin surface on the public listener; requires -admin-token")

		maxSessions  = flag.Int("max-sessions", 0, "session-table capacity driving the overload ladder (0: engine default)")
		memoryBudget = flag.Int64("memory-budget", 0, "estimated tracker+keystore memory budget in bytes; occupancy above it degrades service (0: unbudgeted)")

		upDialTimeout    = flag.Duration("upstream-dial-timeout", 5*time.Second, "origin TCP dial timeout (with -origin)")
		upHeaderTimeout  = flag.Duration("upstream-header-timeout", 15*time.Second, "origin response-header timeout (with -origin)")
		upRequestTimeout = flag.Duration("upstream-request-timeout", 60*time.Second, "end-to-end origin request deadline, retries included (with -origin)")
		upRetries        = flag.Int("upstream-retries", 2, "retries for failed idempotent origin requests (with -origin)")
		brFailures       = flag.Int("breaker-failures", 5, "consecutive origin failures that open the circuit breaker (with -origin)")
		brCooldown       = flag.Duration("breaker-cooldown", 10*time.Second, "how long the breaker stays open before a half-open probe (with -origin)")
	)
	flag.Parse()

	det := core.New(core.Config{
		Decoys:       *decoys,
		ObfuscateJS:  *obfuscate,
		Seed:         *seed,
		MaxSessions:  *maxSessions,
		MemoryBudget: *memoryBudget,
	})
	cfg := proxy.Config{
		Engine:            det,
		TrustForwardedFor: true,
		Upstream: proxy.UpstreamConfig{
			DialTimeout:           *upDialTimeout,
			ResponseHeaderTimeout: *upHeaderTimeout,
			RequestTimeout:        *upRequestTimeout,
			Retries:               *upRetries,
			BreakerFailures:       *brFailures,
			BreakerCooldown:       *brCooldown,
		},
	}
	if *withPol {
		cfg.Policy = policy.NewEngine(policy.Config{})
	}
	if *withCap {
		cfg.Captcha = captcha.NewService(captcha.Config{Seed: *seed})
	}

	var mw *proxy.Middleware
	if *origin != "" {
		u, err := url.Parse(*origin)
		if err != nil {
			log.Fatalf("botproxy: bad -origin %q: %v", *origin, err)
		}
		mw = proxy.NewReverseProxy(u, cfg)
		log.Printf("botproxy: reverse proxying %s on %s", *origin, *addr)
	} else {
		site := webmodel.Generate(webmodel.SiteConfig{Seed: *seed, NumPages: *pages})
		mw = proxy.New(site.Handler(), cfg)
		log.Printf("botproxy: serving built-in site (%d pages) on %s", site.NumPages(), *addr)
	}

	// Amortised idle-session expiry: one shard swept per tick, so no request
	// ever pays for a full-table sweep.
	stopSweeper := det.StartSweeper()
	defer stopSweeper()

	// Automatic script rotation: reseeding the generator invalidates every
	// cached robot copy of the instrumentation script, so replayed beacons
	// from stale scripts stop validating. Timer- and volume-based triggers
	// compose; either alone also works.
	if *rotEvery > 0 || *rotPages > 0 {
		stopRotator := det.StartRotator(*rotEvery, *rotPages)
		defer stopRotator()
		log.Printf("botproxy: script rotation enabled (every %s / %d pages)", *rotEvery, *rotPages)
	}

	// Online training loop: labelled outcomes accumulate as CAPTCHAs resolve
	// and beacons confirm ground truth; once enough new material exists the
	// trainer refits the AdaBoost ensemble and hot-swaps it onto the serving
	// path (a single atomic store — no locks on the read path).
	if *train {
		stopTrainer := det.StartTrainer(*trainEvery, *trainMinNew, adaboost.Config{Rounds: 200})
		defer stopTrainer()
		log.Printf("botproxy: online trainer enabled (every %s, min %d new outcomes)", *trainEvery, *trainMinNew)
	}

	if cfg.Policy != nil {
		cfg.Policy.RegisterMetrics(det.Telemetry().Registry(), "")
	}
	admin := proxy.NewAdmin(proxy.AdminConfig{
		Engine:      det,
		Policy:      cfg.Policy,
		EnablePprof: *withPprof,
		Retrain:     adaboost.Config{Rounds: 200},
		AuthToken:   *adminToken,
		Breaker:     mw.Breaker(),
	})

	mux := http.NewServeMux()
	mux.Handle("/", mw)

	// The admin surface carries mutating controls and per-client PII, so it
	// binds its own listener — loopback by default — instead of riding the
	// public mux. Exposing it publicly is an explicit opt-in that demands a
	// bearer token; without one, any client could POST /__bd/admin/override
	// to clear its own CAPTCHA/block state and feed false labels to the
	// online trainer.
	if *adminPublic {
		if *adminToken == "" {
			log.Fatal("botproxy: -admin-public requires -admin-token; the admin surface must not be open to anonymous clients")
		}
		admin.Register(mux)
		log.Printf("botproxy: admin surface mounted on the public listener (token-gated)")
	}
	if *adminAddr != "" {
		adminMux := http.NewServeMux()
		admin.Register(adminMux)
		adminSrv := &http.Server{
			Addr:              *adminAddr,
			Handler:           adminMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() { log.Fatal(adminSrv.ListenAndServe()) }()
		log.Printf("botproxy: admin surface on %s", *adminAddr)
	} else if !*adminPublic {
		log.Printf("botproxy: admin surface disabled (-admin-addr is empty and -admin-public is off)")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Per-connection serve state: lets the middleware reuse one Prepared
		// page, stream rewriter, and keystore scratch across every request on
		// a keep-alive connection (zero allocations at steady state).
		ConnContext: proxy.ConnContext,
	}
	log.Fatal(srv.ListenAndServe())
}
