package fleet

import (
	"sort"
	"testing"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

// fuzzNames are the origins and senders a fuzzed frame can name: the fleet's
// members (x is the replicator under test) and a stranger.
var fuzzNames = []string{"a", "b", "c", "x", "stranger"}

// fuzzNow is the replicator's clock throughout a fuzzed run; a fifth of the
// fuzzed verdicts and blocks have lapsed by then.
var fuzzNow = time.Unix(1136505600, 0)

// fuzzDurable builds the one durable update with the given identity: its kind
// and payload are functions of (origin, inc, epoch), so two frames that name
// the same identity carry the same update, as retries and re-sends do.
func fuzzDurable(origin string, inc uint32, epoch uint64) Update {
	h := mix64(uint64(len(origin))<<56 ^ uint64(origin[0])<<48 ^ uint64(inc)<<40 ^ epoch)
	u := Update{Origin: origin, Inc: inc, Epoch: epoch, Stamp: int64(h >> 40), Key: key(int(h % 12)),
		Until: fuzzNow.Add(time.Duration(int64(h>>24%1000)-200) * time.Second).UnixNano()}
	switch (h >> 8) % 5 {
	case 0, 1:
		// Any row byte: the fleet carries it as it came, and the engine's
		// remote row refuses one that is not a row of its table.
		u.Kind, u.Verdict = KindVerdict, detect.Verdict{Class: detect.Class(h >> 16 % 3), Confidence: detect.Confidence(h >> 20 % 3),
			Rule: detect.Rule(h >> 48)}
	case 2:
		u.Kind = KindBlock
	case 3:
		u.Kind, u.ModelSeq = KindModel, h>>28%6
		if h>>36%4 != 0 { // one in four is a frame without its model
			u.Model = &adaboost.Model{}
		}
	case 4:
		u.Kind = KindObservation // a durable epoch on a fire-and-forget kind
	}
	return u
}

// fuzzMessage decodes six bytes into one frame.
func fuzzMessage(op []byte) *Message {
	msg := &Message{From: fuzzNames[int(op[0]>>4)%len(fuzzNames)], Inc: uint32(op[2] % 4)}
	if op[0]%8 == 7 {
		msg.Kind = MsgHeartbeat
		for i := 0; i < int(op[4])*16; i++ { // up to 4,080 entries, most for strangers
			name := fuzzNames[i%len(fuzzNames)]
			if i >= len(fuzzNames) {
				name += string(rune('0' + i%10))
			}
			msg.Watermarks = append(msg.Watermarks, Watermark{Origin: name, Inc: uint32(op[2] % 4), Epoch: uint64(op[3]) + uint64(i)})
		}
		return msg
	}
	origin, inc := fuzzNames[int(op[1])%len(fuzzNames)], uint32(op[2]%4)
	for i := 0; i <= int(op[5]%3); i++ {
		epoch := uint64(op[3]%24) + uint64(i)
		switch {
		case op[3] >= 250:
			epoch += 1 << 62
		case op[4]%5 == 0:
			// Fire-and-forget: any kind at epoch 0, the model re-offer among them.
			u := fuzzDurable(origin, inc, uint64(op[4]))
			u.Epoch, u.Kind = 0, Kind(op[4]>>4%6)
			msg.Updates = append(msg.Updates, u)
			continue
		}
		msg.Updates = append(msg.Updates, fuzzDurable(origin, inc, epoch))
	}
	return msg
}

// FuzzReceive drives arbitrary frame sequences — any kind, origin,
// incarnation and epoch, models missing, watermark vectors far larger than
// the fleet — into a replicator that already holds state. It must not panic;
// a watermark never moves backwards within an incarnation and an incarnation
// never moves backwards; the merged model's sequence never decreases; an
// advertised watermark vector never outgrows the fleet; the store ends
// exactly where the same updates lead when each is delivered once, in sorted
// order — leaving out only those that arrived behind their origin's fence;
// and it holds a key exactly when one of its updates was live on arrival.
func FuzzReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0, 1, 1, 1, 2, 0x10, 0, 1, 1, 1, 2, 0x00, 0, 2, 1, 1, 0, 0x20, 0, 1, 2, 1, 1})
	f.Add([]byte{0x07, 0, 1, 9, 255, 0, 0x10, 1, 3, 251, 3, 2, 0x30, 3, 2, 4, 5, 1, 0x40, 4, 0, 0, 10, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		vc := clock.NewVirtual(fuzzNow)
		live := func() *Replicator {
			r := testRep(t, "x", fuzzNames[:4], func(c *Config) { c.Clock = vc })
			r.PublishVerdict(key(100), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, fuzzNow.Add(time.Hour))
			r.PublishBlock(key(101), fuzzNow.Add(time.Hour))
			return r
		}
		type ident struct {
			origin string
			inc    uint32
			epoch  uint64
		}
		sub, ref := live(), live()
		fence := map[string]uint32{"x": 1}
		delivered := map[ident]bool{{"x", 1, 1}: true, {"x", 1, 2}: true}
		var once []Update // what ref will be given

		// Live state first: a few epochs from every member, then the input.
		var prefix []byte
		for i := byte(0); i < 3; i++ {
			prefix = append(prefix, i<<4, i, 1, 1+3*i, 1, 2)
		}
		data = append(prefix, data...)
		for ; len(data) >= 6; data = data[6:] {
			msg := fuzzMessage(data[:6])
			type mark struct {
				inc    uint32
				contig uint64
			}
			before := map[string]mark{}
			for origin, os := range sub.wms {
				before[origin] = mark{os.inc, os.contig}
			}
			_, seqBefore := sub.Model()
			if err := sub.Receive(msg); err != nil {
				t.Fatalf("Receive: %v", err)
			}
			for origin, was := range before {
				now := sub.wms[origin]
				if now.inc < was.inc || (now.inc == was.inc && now.contig < was.contig) {
					t.Fatalf("%s: watermark went from inc %d epoch %d to inc %d epoch %d", origin, was.inc, was.contig, now.inc, now.contig)
				}
			}
			if _, seq := sub.Model(); seq < seqBefore {
				t.Fatalf("model sequence went from %d to %d", seqBefore, seq)
			}
			if p := sub.peers[msg.From]; p != nil && len(p.wms) > len(fuzzNames)-1 {
				t.Fatalf("%s's advertised watermark vector holds %d origins in a fleet of %d", msg.From, len(p.wms), len(fuzzNames)-1)
			}
			for _, u := range msg.Updates {
				id := ident{u.Origin, u.Inc, u.Epoch}
				if u.Epoch == 0 || u.Inc < fence[u.Origin] {
					continue // outside the watermark machinery, or fenced
				}
				fence[u.Origin] = u.Inc
				if !delivered[id] {
					delivered[id] = true
					once = append(once, u)
				}
			}
		}

		sort.Slice(once, func(i, j int) bool {
			a, b := once[i], once[j]
			if a.Origin != b.Origin {
				return a.Origin < b.Origin
			}
			if a.Inc != b.Inc {
				return a.Inc < b.Inc
			}
			return a.Epoch < b.Epoch
		})
		deliverSequential(ref, once)
		if got, want := sub.Digest(), ref.Digest(); got != want {
			t.Fatalf("digest %#x, want %#x from the same %d updates delivered once in sorted order", got, want, len(once))
		}
		for k := 0; k < 12; k++ {
			got, okG := sub.VerdictFor(key(k))
			want, okW := ref.VerdictFor(key(k))
			if okG != okW || got.Verdict != want.Verdict {
				t.Fatalf("%v holds verdict %+v (%v), want %+v (%v)", key(k), got.Verdict, okG, want.Verdict, okW)
			}
		}
		if sub.VerdictCount() != ref.VerdictCount() || sub.BlockCount() != ref.BlockCount() {
			t.Fatalf("stores hold (%d,%d), want (%d,%d)", sub.VerdictCount(), sub.BlockCount(), ref.VerdictCount(), ref.BlockCount())
		}
		if got, want := sub.Stats().Applied, uint64(len(once)); got != want {
			t.Fatalf("applied %d durable updates, want %d", got, want)
		}
		// The lapse rule, independently of the merge: a lapsed entry is
		// admitted to the watermark above but never stored.
		stored := [2]map[session.Key]bool{{key(100): true}, {key(101): true}}
		for _, u := range once {
			if (u.Kind == KindVerdict || u.Kind == KindBlock) && u.Until > fuzzNow.UnixNano() {
				stored[u.Kind][u.Key] = true
			}
		}
		if sub.VerdictCount() != len(stored[KindVerdict]) || sub.BlockCount() != len(stored[KindBlock]) {
			t.Fatalf("stores hold (%d,%d) keys, want the (%d,%d) with a live update",
				sub.VerdictCount(), sub.BlockCount(), len(stored[KindVerdict]), len(stored[KindBlock]))
		}
	})
}
