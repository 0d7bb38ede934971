package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// This file is the generator's HTTP/1.1 client: one keep-alive TCP
// connection, requests appended into a reused buffer, and a response reader
// that understands exactly the framings the proxy can produce
// (Content-Length, chunked, bodiless HEAD/1xx/204/304). It deliberately does
// not use net/http: the generator must stay much cheaper than the server it
// measures, and the reader has to stamp the arrival of the first body byte.

// wireResp is one parsed response. body aliases the connection's scratch
// buffer and is valid until the next exchange on that connection.
type wireResp struct {
	status      int
	contentType string
	noStore     bool // Cache-Control carried no-store
	location    string
	closing     bool // server announced Connection: close
	body        []byte
	// firstByte is when the first body byte was readable (zero for empty
	// bodies); done is when the last byte had been read.
	firstByte time.Time
	done      time.Time
}

var errTruncated = errors.New("wire: response truncated")

// readResponse parses one response from br. head marks a response to a HEAD
// request (headers only). The body is appended to scratch[:0] and returned
// in the response; pass the returned body's backing array back in to reuse
// it. Any short read is reported as errTruncated.
func readResponse(br *bufio.Reader, head bool, scratch []byte) (wireResp, error) {
	var r wireResp
	line, err := readLine(br)
	if err != nil {
		return r, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return r, fmt.Errorf("wire: malformed status line %q", line)
	}
	r.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return r, fmt.Errorf("wire: malformed status line %q", line)
	}
	contentLength := int64(-1)
	chunked := false
	for {
		line, err = readLine(br)
		if err != nil {
			return r, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return r, fmt.Errorf("wire: malformed header line %q", line)
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			contentLength, err = strconv.ParseInt(string(val), 10, 64)
			if err != nil || contentLength < 0 {
				return r, fmt.Errorf("wire: bad Content-Length %q", val)
			}
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = asciiContainsFold(val, "chunked")
		case asciiEqualFold(name, "content-type"):
			r.contentType = string(val)
		case asciiEqualFold(name, "cache-control"):
			r.noStore = asciiContainsFold(val, "no-store")
		case asciiEqualFold(name, "location"):
			r.location = string(val)
		case asciiEqualFold(name, "connection"):
			r.closing = asciiContainsFold(val, "close")
		}
	}
	body := scratch[:0]
	switch {
	case head || r.status/100 == 1 || r.status == 204 || r.status == 304:
		// No body regardless of the framing headers.
	case chunked:
		for {
			line, err = readLine(br)
			if err != nil {
				return r, err
			}
			if semi := bytes.IndexByte(line, ';'); semi >= 0 {
				line = line[:semi]
			}
			size, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if perr != nil || size < 0 {
				return r, fmt.Errorf("wire: bad chunk size %q", line)
			}
			if size == 0 {
				// Trailer section: header lines up to the blank line.
				for {
					line, err = readLine(br)
					if err != nil {
						return r, err
					}
					if len(line) == 0 {
						break
					}
				}
				break
			}
			if body, err = readBody(br, body, size, &r.firstByte); err != nil {
				return r, err
			}
			if line, err = readLine(br); err != nil {
				return r, err
			} else if len(line) != 0 {
				return r, fmt.Errorf("wire: chunk not terminated by CRLF")
			}
		}
	case contentLength >= 0:
		if body, err = readBody(br, body, contentLength, &r.firstByte); err != nil {
			return r, err
		}
	default:
		// Delimited by connection close.
		r.closing = true
		if _, perr := br.Peek(1); perr == nil {
			r.firstByte = time.Now()
		}
		buf := bytes.NewBuffer(body)
		if _, err = io.Copy(buf, br); err != nil {
			return r, err
		}
		body = buf.Bytes()
	}
	r.body = body
	r.done = time.Now()
	return r, nil
}

// readBody appends exactly n bytes from br to body, stamping first with the
// time the first byte became readable if it is still zero.
func readBody(br *bufio.Reader, body []byte, n int64, first *time.Time) ([]byte, error) {
	if n == 0 {
		return body, nil
	}
	if first.IsZero() {
		if _, err := br.Peek(1); err != nil {
			return body, truncated(err)
		}
		*first = time.Now()
	}
	start := len(body)
	need := start + int(n)
	if cap(body) < need {
		grown := make([]byte, start, need+need/4)
		copy(grown, body)
		body = grown
	}
	body = body[:need]
	if _, err := io.ReadFull(br, body[start:]); err != nil {
		return body[:start], truncated(err)
	}
	return body, nil
}

// readLine returns the next line without its CRLF (a bare LF is accepted).
// The slice aliases the reader's buffer.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("wire: header line longer than %d bytes", br.Size())
		}
		return nil, truncated(err)
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTruncated
	}
	return err
}

func asciiLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// asciiEqualFold reports whether b equals the lowercase ASCII string s,
// ignoring case.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if asciiLower(b[i]) != s[i] {
			return false
		}
	}
	return true
}

// asciiContainsFold reports whether b contains the lowercase ASCII string s,
// ignoring case.
func asciiContainsFold(b []byte, s string) bool {
	for i := 0; i+len(s) <= len(b); i++ {
		if asciiEqualFold(b[i:i+len(s)], s) {
			return true
		}
	}
	return false
}

// wireConn is one keep-alive connection to the server under test.
type wireConn struct {
	addr string
	host string
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request scratch
	body []byte // response body scratch
}

func dialWire(addr, host string) (*wireConn, error) {
	w := &wireConn{addr: addr, host: host}
	return w, w.redial()
}

func (w *wireConn) redial() error {
	if w.c != nil {
		_ = w.c.Close() // the connection is being abandoned
	}
	c, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", w.addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; the default is already on
	}
	w.c = c
	if w.br == nil {
		w.br = bufio.NewReaderSize(c, 64<<10)
	} else {
		w.br.Reset(c)
	}
	return nil
}

func (w *wireConn) close() {
	if w.c != nil {
		_ = w.c.Close() // read-only use is over; nothing to flush
		w.c = nil
	}
}

// get performs one GET. identity is the prebuilt per-client header block
// (User-Agent, X-Forwarded-For, each CRLF-terminated); referer may be empty.
// A transport error closes the connection; the next call redials.
func (w *wireConn) get(path string, identity []byte, referer string) (wireResp, error) {
	if w.c == nil {
		if err := w.redial(); err != nil {
			return wireResp{}, err
		}
	}
	b := append(w.req[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, w.host...)
	b = append(b, "\r\n"...)
	b = append(b, identity...)
	if referer != "" {
		b = append(b, "Referer: "...)
		b = append(b, referer...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	w.req = b
	_ = w.c.SetDeadline(time.Now().Add(10 * time.Second)) // a failed arm surfaces as the I/O error below
	if _, err := w.c.Write(b); err != nil {
		w.close()
		return wireResp{}, fmt.Errorf("write request: %w", err)
	}
	resp, err := readResponse(w.br, false, w.body)
	if err != nil {
		w.close()
		return wireResp{}, err
	}
	w.body = resp.body[:0]
	if resp.closing {
		w.close()
	}
	return resp, nil
}

// identityHeaders builds the per-client header block get expects.
func identityHeaders(ua, ip string) []byte {
	b := make([]byte, 0, len(ua)+len(ip)+40)
	b = append(b, "User-Agent: "...)
	b = append(b, ua...)
	b = append(b, "\r\nX-Forwarded-For: "...)
	b = append(b, ip...)
	b = append(b, "\r\n"...)
	return b
}
