// Proxy gateway: protect an origin server you do not control by putting the
// instrumenting reverse proxy in front of it — the deployment shape the
// paper used on CoDeeN nodes. The example starts a synthetic origin, fronts
// it with the detector plus the policy engine, then drives an abusive
// click-fraud style client through it until the policy engine blocks it.
//
// Run with:
//
//	go run ./examples/proxy-gateway
//
// Pass -serve to keep the gateway running for manual exploration instead of
// exiting after the scripted demonstration.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"

	"botdetect/internal/captcha"
	"botdetect/internal/core"
	"botdetect/internal/policy"
	"botdetect/internal/proxy"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

func main() {
	serve := flag.Bool("serve", false, "keep the gateway running on :8080 after the demo")
	flag.Parse()

	// The origin: an existing site we cannot modify.
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 7, NumPages: 50})
	origin := httptest.NewServer(site.Handler())
	defer origin.Close()
	originURL, err := url.Parse(origin.URL)
	if err != nil {
		log.Fatal(err)
	}

	// The gateway: detection + enforcement in front of the origin.
	detector := core.New(core.Config{ObfuscateJS: true, Seed: 99})
	engine := policy.NewEngine(policy.Config{})
	gateway := proxy.NewReverseProxy(originURL, proxy.Config{
		Engine:  detector,
		Policy:  engine,
		Captcha: captcha.NewService(captcha.Config{Seed: 99}),
	})
	// ConnContext gives every accepted connection its own serve state (page
	// keys, injection fragments, rewriter), reused across keep-alive requests.
	front := httptest.NewUnstartedServer(gateway)
	front.Config.ConnContext = proxy.ConnContext
	front.Start()
	defer front.Close()
	fmt.Println("origin:", origin.URL)
	fmt.Println("gateway:", front.URL)

	// An abusive automated client hammering dynamic URLs through the gateway.
	botUA := "Mozilla/4.0 (compatible; MSIE 6.0)" // forged browser agent
	blockedAt := -1
	for i := 0; i < 60; i++ {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/cgi-bin/app1.cgi?ad=%d", front.URL, i), nil)
		req.Header.Set("User-Agent", botUA)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusForbidden && blockedAt < 0 {
			blockedAt = i
			break
		}
	}
	key := session.Key{IP: "127.0.0.1", UserAgent: botUA}
	snap, verdict, _ := detector.Decide(key)
	snap.Release()
	fmt.Println("click-fraud client verdict:", verdict)
	if blockedAt >= 0 {
		fmt.Printf("policy engine blocked the client at request %d\n", blockedAt+1)
	} else {
		fmt.Println("policy engine did not block the client (unexpected)")
	}
	fmt.Println("policy stats:", fmt.Sprintf("%+v", engine.Stats()))

	if *serve {
		fmt.Println("serving gateway on :8080 — press Ctrl+C to stop")
		srv := &http.Server{Addr: ":8080", Handler: gateway, ConnContext: proxy.ConnContext}
		log.Fatal(srv.ListenAndServe())
	}
}
