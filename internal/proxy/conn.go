package proxy

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"

	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
)

// connKeyType keys the per-connection serve state in the request context.
type connKeyType struct{}

var connKey connKeyType

// connState is one connection's reusable serve-path working set: the numeric
// page keys and injection fragments (core.PageState), the streaming rewriter
// with its carry and vectored-write buffers, and the response streamer
// itself. A keep-alive client reuses all of it across every request on its
// connection, so the steady-state HTML page serve allocates nothing.
//
// inUse guards the state against concurrent requests multiplexed onto one
// connection (HTTP/2 streams share a ConnContext): the first request on the
// wire claims the state with a CAS, concurrent losers serve on a fresh
// connState of their own, and the claim is dropped when the response
// finishes.
type connState struct {
	inUse atomic.Bool
	ps    core.PageState
	rw    htmlmod.StreamRewriter
	st    responseStreamer
}

// ConnContext attaches a fresh connState to an accepted connection. Install
// it on the serving http.Server:
//
//	srv := &http.Server{Handler: mw, ConnContext: proxy.ConnContext}
//
// Without it the middleware still works, allocating the state per request
// instead of reusing it per connection.
func ConnContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connKey, new(connState))
}

// claimConn returns the request's connection state if this request is the
// sole current claimant, else a fresh state that lives for this request only.
func claimConn(r *http.Request) *connState {
	cs, _ := r.Context().Value(connKey).(*connState)
	if cs == nil || !cs.inUse.CompareAndSwap(false, true) {
		cs = new(connState)
	}
	return cs
}
