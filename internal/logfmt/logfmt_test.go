package logfmt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleEntry() Entry {
	return Entry{
		Time:        time.Date(2006, 1, 6, 13, 55, 36, 0, time.UTC),
		ClientIP:    "10.1.2.3",
		Method:      "GET",
		Path:        "/index.html?q=1",
		Protocol:    "HTTP/1.1",
		Status:      200,
		Bytes:       5120,
		Referer:     "http://www.example.com/",
		UserAgent:   "Mozilla/5.0 (Windows; U) Firefox/1.5",
		ContentType: "text/html",
	}
}

func TestRoundTripSingle(t *testing.T) {
	e := sampleEntry()
	got, err := ParseLine(e.String())
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if !got.Time.Equal(e.Time) {
		t.Fatalf("time mismatch: %v vs %v", got.Time, e.Time)
	}
	got.Time = e.Time // normalise location for struct compare
	if got != e {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestRoundTripEmptyFields(t *testing.T) {
	e := Entry{
		Time:     time.Date(2006, 1, 13, 0, 0, 0, 0, time.UTC),
		ClientIP: "",
		Method:   "GET",
		Path:     "/",
		Status:   404,
	}
	got, err := ParseLine(e.String())
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if got.ClientIP != "" || got.Referer != "" || got.UserAgent != "" || got.ContentType != "" {
		t.Fatalf("empty fields not preserved: %+v", got)
	}
	if got.Status != 404 || got.Bytes != 0 {
		t.Fatalf("status/bytes wrong: %+v", got)
	}
}

func TestParsePlainCombinedFormat(t *testing.T) {
	line := `192.0.2.9 - - [06/Jan/2006:10:00:00 +0000] "GET /robots.txt HTTP/1.0" 200 68 "-" "Googlebot/2.1"`
	e, err := ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if e.ClientIP != "192.0.2.9" || e.Method != "GET" || e.Path != "/robots.txt" ||
		e.Protocol != "HTTP/1.0" || e.Status != 200 || e.Bytes != 68 ||
		e.Referer != "" || e.UserAgent != "Googlebot/2.1" || e.ContentType != "" {
		t.Fatalf("parsed entry wrong: %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"only-a-host",
		`1.2.3.4 - - 06/Jan/2006 "GET / HTTP/1.1" 200 1 "-" "-"`,
		`1.2.3.4 - - [06/Jan/2006:10:00:00 +0000] GET / HTTP/1.1 200 1 "-" "-"`,
		`1.2.3.4 - - [06/Jan/2006:10:00:00 +0000] "GET / HTTP/1.1" notanum 1 "-" "-"`,
		`1.2.3.4 - - [06/Jan/2006:10:00:00 +0000] "GET / HTTP/1.1" 200 xx "-" "-"`,
		`1.2.3.4 - - [bad time] "GET / HTTP/1.1" 200 1 "-" "-"`,
		`1.2.3.4 - - [06/Jan/2006:10:00:00 +0000] "GET / HTTP/1.1" 200 1 "unterminated`,
	}
	for _, line := range cases {
		if _, err := ParseLine(line); err == nil {
			t.Fatalf("expected error for %q", line)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	entries := []Entry{
		sampleEntry(),
		{
			Time: time.Date(2006, 1, 7, 9, 30, 0, 0, time.UTC), ClientIP: "10.0.0.1",
			Method: "HEAD", Path: "/a.css", Protocol: "HTTP/1.1", Status: 304,
			UserAgent: "crawler \"quoted\" v1", ContentType: "text/css",
		},
		{
			Time: time.Date(2006, 1, 8, 9, 30, 0, 0, time.UTC), ClientIP: "10.0.0.2",
			Method: "POST", Path: "/cgi-bin/form.cgi?a=b&c=d", Protocol: "HTTP/1.0",
			Status: 500, Bytes: 12, Referer: "http://spam.example/?x=1",
		},
	}
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != int64(len(entries)) {
		t.Fatalf("Count = %d", w.Count())
	}

	var got []Entry
	if err := ReadEach(&buf, func(e Entry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("ReadEach: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if !got[i].Time.Equal(entries[i].Time) {
			t.Fatalf("entry %d time mismatch", i)
		}
		got[i].Time = entries[i].Time
		if got[i] != entries[i] {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], entries[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlank(t *testing.T) {
	data := "# access log\n\n" + sampleEntry().String() + "\n"
	r := NewReader(strings.NewReader(data))
	if _, err := r.Read(); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	data := sampleEntry().String() + "\nthis is garbage line\n"
	r := NewReader(strings.NewReader(data))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first Read: %v", err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected line-2 error, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ipA, ipB uint8, pathSeed uint16, status uint16, nbytes uint32, hasRef, hasUA bool) bool {
		e := Entry{
			Time:     time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC).Add(time.Duration(pathSeed) * time.Second),
			ClientIP: "10.0." + itoa(int(ipA)) + "." + itoa(int(ipB)),
			Method:   "GET",
			Path:     "/page" + itoa(int(pathSeed%500)) + ".html",
			Protocol: "HTTP/1.1",
			Status:   200 + int(status%400),
			Bytes:    int64(nbytes % 1000000),
		}
		if hasRef {
			e.Referer = "http://site.example/p" + itoa(int(pathSeed%100))
		}
		if hasUA {
			e.UserAgent = "Agent With Spaces/" + itoa(int(ipA))
		}
		got, err := ParseLine(e.String())
		if err != nil {
			return false
		}
		if !got.Time.Equal(e.Time) {
			return false
		}
		got.Time = e.Time
		return got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// writable reports whether AppendLine spells e so that ParseLine can read
// it back: the host is one unquoted token, the request line splits at its
// first two spaces, "-" stands for an empty host or quoted field, an empty
// protocol is written as HTTP/1.1, a zero status with no positive byte count
// writes "-", and the timestamp has a four-digit year, whole seconds and a
// whole-minute offset.
func writable(e Entry) bool {
	for i := 0; i < len(e.ClientIP); i++ {
		if c := e.ClientIP[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	_, off := e.Time.Zone()
	return e.ClientIP != "-" && !strings.Contains(e.Method, " ") && !strings.Contains(e.Path, " ") &&
		e.Protocol != "" && e.Referer != "-" && e.UserAgent != "-" && e.ContentType != "-" &&
		(e.Status != 0 || e.Bytes >= 0) &&
		e.Time.Year() >= 0 && e.Time.Year() <= 9999 && e.Time.Nanosecond() == 0 && off%60 == 0
}

// FuzzParseLine: ParseLine never panics on arbitrary bytes, and gives back
// every entry the writer can spell.
func FuzzParseLine(f *testing.F) {
	e := sampleEntry()
	f.Add(e.String(), e.Time.Unix(), int16(0), e.ClientIP, e.Method, e.Path, e.Protocol, e.Status, e.Bytes, e.Referer, e.UserAgent, e.ContentType)
	f.Add(`- - - [06/Jan/2006:13:55:36 +0000] "GET / HTTP/1.0" 200 - "-" "-"`, int64(0), int16(-420), "", "", "", "HTTP/2 x", 0, int64(0), "", "", "")
	f.Add(`1.2.3.4 - - [x] "\" 0 0 "\xff" "a\"b"`, int64(-62135596800), int16(330), "::1", "PO\"ST", "/a?b=\xff\n", "HTTP/1.1", -1, int64(-5), "\x00", "Mozilla \"5\"", "text/html; charset=utf-8")
	f.Fuzz(func(t *testing.T, line string, unix int64, offMin int16, ip, method, path, proto string, status int, nbytes int64, ref, ua, ctype string) {
		ParseLine(line) // must not panic

		e := Entry{
			Time:     time.Unix(unix, 0).In(time.FixedZone("", int(offMin%(15*60))*60)),
			ClientIP: ip, Method: method, Path: path, Protocol: proto, Status: status,
			Bytes: nbytes, Referer: ref, UserAgent: ua, ContentType: ctype,
		}
		if !writable(e) {
			return
		}
		written := string(e.AppendLine(nil))
		got, err := ParseLine(written)
		if err != nil {
			t.Fatalf("%q: %v", written, err)
		}
		if !got.Time.Equal(e.Time) {
			t.Fatalf("%q: time %v, want %v", written, got.Time, e.Time)
		}
		got.Time = e.Time
		if got != e {
			t.Fatalf("%q reads back as\n%+v, want\n%+v", written, got, e)
		}
	})
}

// classificationCases are the request kinds every classifier test checks:
// the paper's object classes, and the spellings a case fold must get right.
var classificationCases = []struct {
	name string
	e    Entry
	want Kind
}{
	{"html by ext", Entry{Path: "/index.html"}, KindHTML},
	{"html by ctype", Entry{Path: "/x", ContentType: "text/html; charset=utf-8"}, KindHTML},
	{"directory", Entry{Path: "/dir/"}, KindHTML},
	{"extensionless", Entry{Path: "/about"}, KindHTML},
	{"css", Entry{Path: "/2031464296.css"}, kindCSS | KindEmbedded},
	{"css ctype", Entry{Path: "/style", ContentType: "text/css"}, kindCSS | KindEmbedded},
	{"js", Entry{Path: "/index_0729395150.js"}, kindJS | KindEmbedded},
	{"js ctype", Entry{Path: "/x", ContentType: "application/javascript"}, kindJS | KindEmbedded},
	{"jpg", Entry{Path: "/0729395160.jpg"}, KindImage | KindEmbedded},
	{"image ctype", Entry{Path: "/pic", ContentType: "image/png"}, KindImage | KindEmbedded},
	{"favicon", Entry{Path: "/favicon.ico"}, KindImage | KindFavicon | KindEmbedded},
	{"cgi-bin", Entry{Path: "/cgi-bin/search.cgi"}, KindCGI},
	{"php query", Entry{Path: "/page.php?id=2"}, KindHTML | KindCGI},
	{"query only", Entry{Path: "/search?q=x"}, KindHTML | KindCGI},
	{"font", Entry{Path: "/font.woff"}, KindEmbedded},
	{"upper-case image path", Entry{Path: "/IMG/A.JPG", ContentType: "image/jpeg"}, KindImage | KindEmbedded},
	{"mixed-case image ctype", Entry{Path: "/img/a.jpg", ContentType: "Image/JPEG"}, KindImage | KindEmbedded},
	{"mixed-case html path", Entry{Path: "/Photos/Index.HTML", ContentType: "text/html"}, KindHTML},
	{"mixed-case html ctype", Entry{Path: "/x", ContentType: "Text/HTML; charset=UTF-8"}, KindHTML},
	{"mixed-case js ctype", Entry{Path: "/x", ContentType: "Application/X-EcmaScript"}, kindJS | KindEmbedded},
	{"upper-case cgi-bin", Entry{Path: "/CGI-BIN/Search"}, KindHTML | KindCGI},
	{"upper-case favicon", Entry{Path: "/FAVICON.ICO"}, KindImage | KindFavicon | KindEmbedded},
	{"dotted capital I favicon", Entry{Path: "/FAVİCON.ICO"}, KindImage | KindFavicon | KindEmbedded},
	{"dotted capital I bare favicon", Entry{Path: "favİcon.ico"}, KindImage | KindFavicon | KindEmbedded},
	{"dotted capital I extension", Entry{Path: "/a.GİF"}, KindImage | KindEmbedded},
	{"dotted capital I cgi", Entry{Path: "/CGİ/x"}, KindHTML | KindCGI},
	{"dotted capital I ctype", Entry{Path: "/x", ContentType: "İmage/png"}, KindImage | KindEmbedded},
	{"kelvin sign extension", Entry{Path: "/a.Khtml"}, 0},
	{"kelvin sign directory", Entry{Path: "/booK/"}, KindHTML},
	{"invalid utf-8 before favicon", Entry{Path: "/\xc4favicon.ico"}, KindImage | KindEmbedded},
	{"invalid utf-8 extension", Entry{Path: "/a.\xffjpg"}, 0},
	{"invalid utf-8 ctype", Entry{Path: "/a.jpg", ContentType: "\xc4text/html"}, KindImage | KindEmbedded},
	{"empty query", Entry{Path: "/search?"}, KindHTML},
	{"dot in directory", Entry{Path: "/dir.v2/file"}, 0},
	{"html ctype vetoed by position", Entry{Path: "/index.html", ContentType: "application/xhtml+xml, text/html"}, 0},
}

func TestClassificationHelpers(t *testing.T) {
	for _, tc := range classificationCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.e.Kind(); got != tc.want {
				t.Errorf("Kind(%q, %q) = %07b, want %07b", tc.e.Path, tc.e.ContentType, got, tc.want)
			}
			if got := oracleKind(tc.e); got != tc.want {
				t.Errorf("oracle(%q, %q) = %07b, want %07b", tc.e.Path, tc.e.ContentType, got, tc.want)
			}
		})
	}
}

// FuzzKind holds Entry.Kind to the per-class methods it replaced
// (oracle_test.go), bit for bit, on arbitrary paths, content types and
// methods.
func FuzzKind(f *testing.F) {
	for _, tc := range classificationCases {
		f.Add(tc.e.Path, tc.e.ContentType, "GET")
	}
	f.Add("/Favicon.ico?x", "", "head")
	f.Add("/a.PHP?", "TEXT/PLAIN", "POST")
	f.Add("/\u212a\u0130/cgi/\xff.Js", "text/javascript\xc4\xb0", "\xff")
	f.Fuzz(func(t *testing.T, path, ctype, method string) {
		e := Entry{Path: path, ContentType: ctype, Method: method}
		if got, want := e.Kind(), oracleKind(e); got != want {
			t.Fatalf("Kind(%q, %q) = %07b, oracle %07b", path, ctype, got, want)
		}
	})
}

// TestKindZeroAlloc: classifying a request allocates nothing in any letter
// case. The methods Kind replaced lowered the strings again each time: the
// tracker's observe step allocated 4, 3 and 11 times for the first three.
func TestKindZeroAlloc(t *testing.T) {
	for _, e := range []Entry{
		{Path: "/IMG/A.JPG", ContentType: "image/jpeg"},
		{Path: "/img/a.jpg", ContentType: "Image/JPEG"},
		{Path: "/Photos/Index.HTML", ContentType: "text/html"},
		{Path: "/CGI-BIN/FAV\u0130CON.ICO?Q=1", ContentType: "Application/JavaScript"},
	} {
		var k Kind
		allocs := testing.AllocsPerRun(100, func() { k |= e.Kind() })
		if raceEnabled {
			continue
		}
		if allocs != 0 {
			t.Errorf("Kind(%q, %q) = %v allocs, want 0", e.Path, e.ContentType, allocs)
		}
	}
}

func TestPathQueryExt(t *testing.T) {
	e := Entry{Path: "/cgi-bin/a.cgi?x=1&y=2"}
	if e.PathOnly() != "/cgi-bin/a.cgi" {
		t.Fatalf("PathOnly = %q", e.PathOnly())
	}
	if e.Query() != "x=1&y=2" {
		t.Fatalf("Query = %q", e.Query())
	}
	if e.Ext() != ".cgi" {
		t.Fatalf("Ext = %q", e.Ext())
	}
	if (Entry{Path: "/dir.v2/file"}).Ext() != "" {
		t.Fatal("Ext should ignore dots in directories")
	}
	if (Entry{Path: "/plain"}).Query() != "" {
		t.Fatal("Query on plain path should be empty")
	}
}

func TestHeadAndStatusClass(t *testing.T) {
	if !(Entry{Method: "head"}).IsHead() || (Entry{Method: "GET"}).IsHead() {
		t.Fatal("IsHead incorrect")
	}
	if (Entry{Status: 301}).StatusClass() != 3 || (Entry{Status: 404}).StatusClass() != 4 || (Entry{Status: 200}).StatusClass() != 2 {
		t.Fatal("StatusClass incorrect")
	}
}

func TestAppendLineMatchesString(t *testing.T) {
	entries := []Entry{
		{
			Time: time.Date(2006, 1, 6, 12, 30, 15, 0, time.UTC), ClientIP: "10.0.0.1",
			Method: "GET", Path: "/a.html?x=1", Protocol: "HTTP/1.0", Status: 200,
			Bytes: 4096, Referer: "http://h/x.html", UserAgent: "Firefox/1.5",
			ContentType: "text/html",
		},
		{}, // all-zero entry: dashes everywhere
		{
			Time:     time.Date(2006, 1, 6, 0, 0, 0, 0, time.FixedZone("PST", -8*3600)),
			ClientIP: "192.168.1.1", Method: "POST", Path: `/weird "path"\with?q=ü`,
			Status: 404, Referer: "ref \"quoted\"", UserAgent: "агент\ttab",
			ContentType: "text/plain; charset=utf-8",
		},
	}
	var buf []byte
	for i, e := range entries {
		buf = e.AppendLine(buf[:0])
		if string(buf) != e.String() {
			t.Fatalf("entry %d: AppendLine = %q, String = %q", i, buf, e.String())
		}
	}
}

func TestAppendLineRoundTrips(t *testing.T) {
	e := Entry{
		Time: time.Date(2006, 1, 6, 12, 30, 15, 0, time.UTC), ClientIP: "10.0.0.7",
		Method: "GET", Path: "/p.html", Protocol: "HTTP/1.1", Status: 200,
		Bytes: 123, Referer: "http://h/", UserAgent: "Mozilla/5.0", ContentType: "text/html",
	}
	got, err := ParseLine(string(e.AppendLine(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(e.Time) {
		t.Fatalf("time = %v, want %v", got.Time, e.Time)
	}
	got.Time = e.Time
	if got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

func TestReadEachStreamsAndAborts(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	for i := 0; i < 5; i++ {
		if err := w.Write(Entry{
			Time: time.Date(2006, 1, 6, 0, 0, i, 0, time.UTC), ClientIP: "10.0.0.1",
			Method: "GET", Path: fmt.Sprintf("/p%d.html", i), Status: 200,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var n int
	if err := ReadEach(strings.NewReader(sb.String()), func(e Entry) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("streamed %d entries, want 5", n)
	}

	// Early abort: the callback's error surfaces verbatim and stops the scan.
	sentinel := errors.New("stop here")
	n = 0
	err := ReadEach(strings.NewReader(sb.String()), func(e Entry) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != 2 {
		t.Fatalf("abort: err=%v n=%d", err, n)
	}
}

func TestWriterSteadyStateAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	e := Entry{
		Time: time.Date(2006, 1, 6, 12, 0, 0, 0, time.UTC), ClientIP: "10.0.0.1",
		Method: "GET", Path: "/page1.html", Protocol: "HTTP/1.1", Status: 200,
		Bytes: 4096, Referer: "http://h/x.html", UserAgent: "Firefox/1.5",
		ContentType: "text/html",
	}
	w.Write(e) // warm the line buffer
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("Writer.Write allocated %.1f/op, want 0", allocs)
	}
}
