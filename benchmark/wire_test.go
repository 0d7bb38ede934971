package main

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

func parse(t *testing.T, raw string, head bool) (wireResp, error) {
	t.Helper()
	return readResponse(bufio.NewReader(strings.NewReader(raw)), head, nil)
}

func TestReadResponseContentLength(t *testing.T) {
	r, err := parse(t, "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nCache-Control: no-cache, no-store\r\nContent-Length: 5\r\n\r\nhelloNEXT", false)
	if err != nil {
		t.Fatal(err)
	}
	if r.status != 200 || string(r.body) != "hello" || !r.noStore || r.contentType != "text/html; charset=utf-8" {
		t.Fatalf("got %+v body %q", r, r.body)
	}
	if r.firstByte.IsZero() || r.done.Before(r.firstByte) {
		t.Fatalf("first byte %v, done %v", r.firstByte, r.done)
	}
}

func TestReadResponseChunked(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nLocation: /next\r\n\r\n" +
		"4;ext=1\r\nWiki\r\n6\r\npedia \r\nE\r\nin \r\n\r\nchunks.\r\n0\r\nTrailer: x\r\n\r\n"
	r, err := parse(t, raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(r.body); got != "Wikipedia in \r\n\r\nchunks." {
		t.Fatalf("body %q", got)
	}
	if r.location != "/next" || r.closing {
		t.Fatalf("got %+v", r)
	}
}

func TestReadResponseKeepsReaderAtNextResponse(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n" +
			"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno"))
	first, err := readResponse(br, false, nil)
	if err != nil || string(first.body) != "abc" {
		t.Fatalf("first: %v %q", err, first.body)
	}
	second, err := readResponse(br, false, first.body)
	if err != nil || second.status != 404 || string(second.body) != "no" || !second.closing {
		t.Fatalf("second: %v %+v %q", err, second, second.body)
	}
}

func TestReadResponseBodiless(t *testing.T) {
	// A HEAD response advertises a length it does not send.
	r, err := parse(t, "HTTP/1.1 200 OK\r\nContent-Length: 1234\r\n\r\n", true)
	if err != nil || len(r.body) != 0 || !r.firstByte.IsZero() {
		t.Fatalf("HEAD: %v %+v", err, r)
	}
	for _, status := range []string{"204 No Content", "304 Not Modified"} {
		r, err := parse(t, "HTTP/1.1 "+status+"\r\nContent-Length: 9\r\n\r\n", false)
		if err != nil || len(r.body) != 0 {
			t.Fatalf("%s: %v %+v", status, err, r)
		}
	}
}

func TestReadResponseTruncated(t *testing.T) {
	for name, raw := range map[string]string{
		"status line":   "HTTP/1.1 200",
		"headers":       "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n",
		"fixed body":    "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel",
		"chunk body":    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
		"chunk trailer": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n0\r\n",
		"nothing":       "",
	} {
		if _, err := parse(t, raw, false); !errors.Is(err, errTruncated) {
			t.Errorf("%s: err = %v, want errTruncated", name, err)
		}
	}
}

func TestReadResponseMalformed(t *testing.T) {
	for name, raw := range map[string]string{
		"status":     "HTTP/1.1 abc OK\r\n\r\n",
		"length":     "HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
		"chunk size": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"header":     "HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
	} {
		if _, err := parse(t, raw, false); err == nil || errors.Is(err, errTruncated) {
			t.Errorf("%s: err = %v, want a parse error", name, err)
		}
	}
}

func TestReadResponseUntilClose(t *testing.T) {
	r, err := parse(t, "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the end", false)
	if err != nil || string(r.body) != "until the end" || !r.closing {
		t.Fatalf("%v %+v %q", err, r, r.body)
	}
}
