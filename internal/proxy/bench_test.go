package proxy

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"botdetect/internal/core"
)

// benchServe measures a full middleware page serve. withConn selects the
// per-connection path (claimed connState, reused Prepared, vectored writes)
// vs the per-request fallback every request pays without ConnContext.
func benchServe(b *testing.B, withConn bool) {
	det := core.New(core.Config{Seed: 47, ObfuscateJS: true, Shards: 1})
	mw := New(htmlOrigin(), Config{Engine: det})

	ctx := context.Background()
	if withConn {
		ctx = ConnContext(ctx, nil)
	}
	req := httptest.NewRequest(http.MethodGet, "/bench.html", nil).WithContext(ctx)
	req.RemoteAddr = "10.15.0.1:4000"
	req.Header.Set("User-Agent", "Firefox/1.5")
	w := &nopResponseWriter{h: make(http.Header)}

	for i := 0; i < 200; i++ {
		mw.ServeHTTP(w, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw.ServeHTTP(w, req)
	}
}

func BenchmarkServePageConn(b *testing.B)       { benchServe(b, true) }
func BenchmarkServePagePerRequest(b *testing.B) { benchServe(b, false) }
