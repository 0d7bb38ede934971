package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"botdetect/internal/agents"
	"botdetect/internal/session"
)

// goldenTrafficFile holds, for each agent kind of the golden run, the
// number of requests the kind made and the SHA-256 of its request stream.
const goldenTrafficFile = "testdata/traffic_seed2006.golden"

// TestGoldenTraffic pins every agent kind's traffic byte for byte: a run at
// seed 2006 with every family weighted equally, each recorded request
// (virtual time to the nanosecond, then its access-log line: method, path,
// referer, agent, status, bytes, content type) hashed into its kind's
// stream in log order. A change to an agent, the site, the CDN or the
// engine's responses that moves any kind's traffic fails here; the failure
// prints the lines to write into the golden file when the move is meant.
func TestGoldenTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 300-session workload")
	}
	mix := Mix{HumanJS: 1, HumanNoJS: 1, Crawler: 1, EmailHarvester: 1, ReferrerSpammer: 1,
		ClickFraud: 1, VulnScanner: 1, OfflineBrowser: 1, SmartBot: 1, SmartBotForgedUA: 1}
	res := Run(Config{Sessions: 300, Mix: mix, RecordLogs: true, Seed: 2006})

	hashes, counts := map[agents.Kind]hash.Hash{}, map[agents.Kind]int{}
	var line []byte
	for _, e := range res.Entries {
		kind, ok := res.GroundTruth[session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}]
		if !ok {
			t.Fatalf("entry of no launched agent: %s", e)
		}
		if hashes[kind] == nil {
			hashes[kind] = sha256.New()
		}
		line = strconv.AppendInt(line[:0], e.Time.UnixNano(), 10)
		line = append(line, ' ')
		line = e.AppendLine(line)
		line = append(line, '\n')
		hashes[kind].Write(line)
		counts[kind]++
	}
	var got []string
	for kind, h := range hashes {
		got = append(got, fmt.Sprintf("%s %d %s", kind, counts[kind], hex.EncodeToString(h.Sum(nil))))
	}
	sort.Strings(got)

	raw, err := os.ReadFile(goldenTrafficFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("traffic moved; %s holds\n%s\nthe run gives\n%s",
			goldenTrafficFile, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	if len(got) != 9 {
		t.Fatalf("%d kinds made traffic, want all 9", len(got))
	}
}
