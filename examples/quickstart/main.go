// Quickstart: protect an existing http.Handler with the robot-detection
// middleware in a few lines, then watch the detector classify a browser-like
// client and a crawler-like client.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/proxy"
	"botdetect/internal/session"
)

func main() {
	// 1. Your existing application handler: any http.Handler works.
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<html><head><title>shop</title></head><body>
<h1>Welcome</h1>
<ul><li><a href="/catalog">Catalog</a></li><li><a href="/about">About</a></li></ul>
<img src="/logo.png">
</body></html>`)
	})

	// 2. Wrap it with the detector middleware.
	detector := core.New(core.Config{ObfuscateJS: true, Seed: 42})
	protected := proxy.New(app, proxy.Config{Engine: detector})

	// 3. Serve it (httptest keeps this example self-contained; in production
	//    pass `protected` to http.ListenAndServe).
	server := httptest.NewServer(protected)
	defer server.Close()
	fmt.Println("protected application running at", server.URL)

	// 4. A browser-like client: loads the page, fetches the injected
	//    stylesheet and script, and fires the input-event beacon the way a
	//    real browser executing the JavaScript would.
	browserUA := "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5"
	page := get(server.URL+"/", browserUA)
	sum := htmlmod.Extract([]byte(page))
	fmt.Printf("\nbrowser client: page has %d injected stylesheets/scripts and a hidden trap link: %v\n",
		len(sum.Stylesheets)+len(sum.Scripts), len(sum.HiddenLinks) == 1)
	for _, css := range sum.Stylesheets {
		get(server.URL+css, browserUA)
	}
	var script string
	for _, js := range sum.Scripts {
		script = get(server.URL+js, browserUA)
	}
	// "Execute" the script: extract the genuine handler beacon (plain or
	// String.fromCharCode-encoded) and fetch it.
	if beacon := agents.HandlerBeaconURL(script, "__bd_f"); beacon != "" {
		get(server.URL+beacon, browserUA)
	}
	browserKey := session.Key{IP: "127.0.0.1", UserAgent: browserUA}
	snap, verdict, _ := detector.Decide(browserKey) // the snapshot goes back to its pool
	snap.Release()
	fmt.Println("browser verdict:", verdict)

	// 5. A crawler-like client: fetches pages only, follows the hidden link.
	crawlerUA := "ExampleCrawler/1.0 (+http://example.org/bot)"
	crawlerPage := get(server.URL+"/", crawlerUA)
	crawlerSum := htmlmod.Extract([]byte(crawlerPage))
	for _, l := range crawlerSum.HiddenLinks {
		get(server.URL+l, crawlerUA)
	}
	crawlerKey := session.Key{IP: "127.0.0.1", UserAgent: crawlerUA}
	snap, verdict, _ = detector.Decide(crawlerKey)
	snap.Release()
	fmt.Println("crawler verdict:", verdict)
}

// get fetches a URL with the given User-Agent and returns the body.
func get(url, ua string) string {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("User-Agent", ua)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}
