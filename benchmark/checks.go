package main

import (
	"bytes"
	"strings"
)

// This file holds the output checks. Every response is verified against what
// the generator knows the origin would have served: it owns a copy of the
// seeded site (or the corpus it serves itself as the stub origin), so status,
// content type and body are all predictable. A failed check names its reason;
// reasons are tallied and feed `failed` and the exit code.

const (
	// fullCheckEvery is how often an instrumented page is checked
	// byte-for-byte against its origin document (1 in 64).
	fullCheckEvery = 64
	// maxInsertions is the number of separate runs the instrumentation may
	// add to a page: after <head>, inside <body ...>, after <body>, before
	// </body>.
	maxInsertions = 4
	// resyncAnchor is how many origin bytes must match for an inserted run
	// to count as over.
	resyncAnchor = 32
)

// stripInsertions checks that got is origin with at most maxRuns byte runs
// inserted and nothing else changed. It makes no assumption about what the
// runs look like, so a later change to the injected markup does not need a
// matching change here. inserted is everything in got that is not origin,
// concatenated (exact when ok, best effort otherwise).
func stripInsertions(got, origin []byte, maxRuns int) (inserted []byte, ok bool) {
	i, j, runs := 0, 0, 0
	for {
		n := commonPrefix(origin[i:], got[j:])
		i += n
		j += n
		if i == len(origin) {
			if j < len(got) {
				inserted = append(inserted, got[j:]...)
				runs++
			}
			return inserted, runs <= maxRuns
		}
		if j == len(got) {
			return inserted, false
		}
		skip, k := resync(got[j:], origin[i:])
		if k < 0 {
			return inserted, false
		}
		// got[j:j+k] is inserted text with origin[i:i+skip] threaded through
		// it one byte at a time: skip+1 runs.
		run := got[j : j+k]
		for _, c := range origin[i : i+skip] {
			at := bytes.IndexByte(run, c)
			inserted = append(inserted, run[:at]...)
			run = run[at+1:]
		}
		inserted = append(inserted, run...)
		runs += skip + 1
		i += skip
		j += k
	}
}

// maxSkip is how many origin bytes may sit isolated between two insertions
// (the '>' between attributes injected into <body ...> and the fragment
// injected right after the tag).
const maxSkip = 3

// resync is called where got and the origin's continuation rest disagree, so
// got starts with inserted text. It finds the earliest point k of got where
// the origin continues for a whole anchor again, allowing up to maxSkip
// origin bytes to be scattered (in order) through the inserted text before
// it, and returns that skip count and k; k is -1 when there is no such point.
// A wrong guess can only make the check fail, never pass: whatever it
// accepts is a real decomposition of got into origin plus insertions.
func resync(got, rest []byte) (skip, k int) {
	for skip = 0; skip <= maxSkip && skip <= len(rest); skip++ {
		tail := rest[skip:]
		if len(tail) <= resyncAnchor {
			// The end of the document: it must close the response.
			k = len(got) - len(tail)
			if k < 0 || !bytes.Equal(got[k:], tail) {
				continue
			}
		} else if k = bytes.Index(got, tail[:resyncAnchor]); k < 0 {
			continue
		}
		if k > 0 && isSubsequence(rest[:skip], got[:k]) {
			return skip, k
		}
	}
	return 0, -1
}

// isSubsequence reports whether the bytes of small occur in big in order.
func isSubsequence(small, big []byte) bool {
	for _, c := range small {
		at := bytes.IndexByte(big, c)
		if at < 0 {
			return false
		}
		big = big[at+1:]
	}
	return true
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// expected is what the origin serves for one request.
type expected struct {
	status      int
	contentType string
	body        []byte
	// instrumented marks a 200 text/html GET: the proxy injects into it, so
	// the body is checked as origin-plus-insertions, not for equality.
	instrumented bool
}

// beaconContentType is the content type the engine answers each
// instrumentation object with, by path shape.
func beaconContentType(rest string) string {
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest = rest[:i]
	}
	switch {
	case strings.HasPrefix(rest, "hidden/"):
		return "text/html"
	case strings.HasSuffix(rest, ".gif"):
		return "image/gif"
	case strings.HasSuffix(rest, ".js"):
		return "application/javascript"
	case strings.HasSuffix(rest, ".css"):
		return "text/css"
	case strings.HasSuffix(rest, ".jpg"):
		return "image/jpeg"
	}
	return ""
}

// checker verifies responses and tallies failures by reason. One checker
// belongs to one generator goroutine.
type checker struct {
	prefix  string // beacon prefix, e.g. "/__bd"
	marker  []byte // prefix + "/", present in every instrumented page
	pages   int64  // instrumented pages seen, drives the 1-in-64 sampling
	reasons map[string]int64
}

func newChecker(prefix string) *checker {
	return &checker{prefix: prefix, marker: []byte(prefix + "/"), reasons: make(map[string]int64)}
}

func (c *checker) fail(reason string) bool {
	c.reasons[reason]++
	return false
}

// beacon verifies an instrumentation response (generated stylesheet, script,
// beacon image): 200, the right content type, uncacheable.
func (c *checker) beacon(path string, r *wireResp) bool {
	want := beaconContentType(strings.TrimPrefix(path, c.prefix+"/"))
	switch {
	case r.status != 200:
		return c.fail("beacon status")
	case want == "" || !strings.HasPrefix(r.contentType, want):
		return c.fail("beacon content type")
	case !r.noStore:
		return c.fail("beacon cacheable")
	}
	return true
}

// origin verifies a response for origin content against what the origin
// serves for it.
func (c *checker) origin(want expected, r *wireResp) bool {
	if r.status != want.status {
		if r.status == 403 || r.status == 429 {
			return c.fail("refused by policy")
		}
		return c.fail("status")
	}
	if !want.instrumented {
		if !bytes.Equal(r.body, want.body) {
			return c.fail("body differs from origin")
		}
		return true
	}
	if !r.noStore {
		return c.fail("page cacheable")
	}
	if len(r.body) <= len(want.body) || !bytes.Contains(r.body, c.marker) {
		return c.fail("page not instrumented")
	}
	c.pages++
	if c.pages%fullCheckEvery == 1 {
		inserted, ok := stripInsertions(r.body, want.body, maxInsertions)
		if !ok {
			return c.fail("page is not origin plus insertions")
		}
		if !bytes.Contains(inserted, c.marker) {
			return c.fail("insertions carry no beacon marker")
		}
	}
	return true
}

// mergeReasons adds src's tallies into dst.
func mergeReasons(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}
