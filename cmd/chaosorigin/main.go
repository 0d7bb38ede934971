// Command chaosorigin serves a tiny HTML origin wrapped in the chaos
// fault-injection switchboard (internal/chaos). It exists for resilience
// drills and the CI chaos smoke: boot it behind botproxy -origin, flip
// faults over the control endpoint, and watch the proxy's circuit breaker
// trip and recover.
//
// Usage:
//
//	chaosorigin [-addr 127.0.0.1:9090] [-control /chaos]
//
// Faults are driven via GET/POST on the control path:
//
//	curl 'http://127.0.0.1:9090/chaos?fail_status=503&fail_count=-1'  # dark
//	curl 'http://127.0.0.1:9090/chaos?latency_ms=200'                 # slow
//	curl 'http://127.0.0.1:9090/chaos?reset_count=5'                  # resets
//	curl 'http://127.0.0.1:9090/chaos?heal=1'                         # heal
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"botdetect/internal/chaos"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9090", "listen address")
		control = flag.String("control", "/chaos", "control endpoint path (outside the proxied namespace)")
	)
	flag.Parse()

	origin := chaos.NewOrigin(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><head><title>chaos origin</title></head>"+
			"<body><h1>ok</h1><p>path %s</p></body></html>", r.URL.Path)
	}), nil)

	mux := http.NewServeMux()
	mux.HandleFunc(*control, origin.Control())
	mux.Handle("/", origin)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("chaosorigin: serving on %s (control at %s)", *addr, *control)
	log.Fatal(srv.ListenAndServe())
}
