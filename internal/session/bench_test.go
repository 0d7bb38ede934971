package session

import (
	"fmt"
	"testing"
)

// BenchmarkObserveCrawler prices the sorted path set where it is worst: a
// session at the 2,048-path cap. "steady" revisits known paths with a
// same-site referrer (two binary searches a request, nothing inserted) at 12
// paths and at the cap; "walk" is the crawl itself — every request a
// never-seen path, so each one grows or copy-shifts up to 8 KB of
// fingerprints — averaged over whole sessions from the first path to the
// 2,048th.
func BenchmarkObserveCrawler(b *testing.B) {
	paths := make([]string, maxTrackedPaths)
	refs := make([]string, maxTrackedPaths)
	for i := range paths {
		paths[i] = fmt.Sprintf("/archive/%d/page%d.html", i%12, i)
		refs[i] = "http://www.example.com" + paths[i]
	}
	observe := func(tr *Tracker, i, n int) {
		e := entry("10.0.0.1", "Crawler/1.0", "GET", paths[i%n], 200, refs[(i+n-1)%n], tr.cfg.Clock.Now())
		e.ContentType = "text/html"
		tr.ObserveQuiet(e)
	}
	for _, n := range []int{12, maxTrackedPaths} {
		b.Run(fmt.Sprintf("steady/paths=%d", n), func(b *testing.B) {
			tr, _ := newTestTracker(Config{})
			for i := 0; i < n; i++ {
				observe(tr, i, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(tr, i, n)
			}
		})
	}
	b.Run("walk", func(b *testing.B) {
		tr, _ := newTestTracker(Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%maxTrackedPaths == 0 {
				tr.FlushAll() // the next lap is a new session
			}
			observe(tr, i, maxTrackedPaths)
		}
	})
}
