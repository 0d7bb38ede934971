package captcha

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/session"
)

func newTestService(cfg Config) (*Service, *clock.Virtual) {
	vc := clock.NewVirtual(time.Time{})
	cfg.Clock = vc
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return NewService(cfg), vc
}

func key(i int) session.Key {
	return session.Key{IP: fmt.Sprintf("10.0.0.%d", i), UserAgent: "UA"}
}

func TestIssueAndSolve(t *testing.T) {
	s, _ := newTestService(Config{})
	ch := s.Issue(key(1))
	if ch.ID == "" || ch.Question == "" {
		t.Fatalf("challenge = %+v", ch)
	}
	ans, ok := s.Answer(ch.ID)
	if !ok {
		t.Fatal("Answer lookup failed")
	}
	if !s.Verify(ch.ID, ans) {
		t.Fatal("correct answer rejected")
	}
	// A solved challenge cannot be reused.
	if s.Verify(ch.ID, ans) {
		t.Fatal("solved challenge accepted twice")
	}
	if n := len(s.outstanding); n != 0 {
		t.Fatalf("%d challenges stored after the solve", n)
	}
}

func TestChallengeAnswersAreConsistent(t *testing.T) {
	// Every generated question's text must agree with its stored answer.
	s, _ := newTestService(Config{})
	for i := 0; i < 200; i++ {
		ch := s.Issue(key(i))
		ans, _ := s.Answer(ch.ID)
		words := strings.Fields(ch.Question)
		x, err1 := strconv.Atoi(words[2])
		y, err2 := strconv.Atoi(strings.TrimSuffix(words[4], "?"))
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable question %q", ch.Question)
		}
		var want int
		switch words[3] {
		case "plus":
			want = x + y
		case "minus":
			want = x - y
		case "times":
			want = x * y
		default:
			t.Fatalf("unknown operator in %q", ch.Question)
		}
		if ans != strconv.Itoa(want) {
			t.Fatalf("question %q has stored answer %s, want %d", ch.Question, ans, want)
		}
	}
}

func TestWrongAnswerAndAttemptLimit(t *testing.T) {
	s, _ := newTestService(Config{})
	ch := s.Issue(key(2))
	for _, wrong := range []string{"not-a-number", "999999", "-1"} {
		if _, ok := s.Answer(ch.ID); !ok {
			t.Fatalf("challenge discarded before its third attempt (%q)", wrong)
		}
		if s.Verify(ch.ID, wrong) {
			t.Fatal("wrong answer accepted")
		}
	}
	// Attempts exhausted: even the right answer is now rejected.
	ans, ok := s.Answer(ch.ID)
	if ok {
		t.Fatalf("challenge should have been discarded, answer=%s", ans)
	}
	if s.Verify(ch.ID, "0") {
		t.Fatal("discarded challenge accepted")
	}
}

func TestExpiry(t *testing.T) {
	s, vc := newTestService(Config{})
	ch := s.Issue(key(3))
	ans, _ := s.Answer(ch.ID)
	vc.Advance(11 * time.Minute)
	if s.Verify(ch.ID, ans) {
		t.Fatal("expired challenge accepted")
	}
	if _, ok := s.Answer(ch.ID); ok {
		t.Fatal("expired challenge still stored after its verify")
	}
}

func TestWhitespaceTolerantAnswers(t *testing.T) {
	s, _ := newTestService(Config{})
	ch := s.Issue(key(4))
	ans, _ := s.Answer(ch.ID)
	if !s.Verify(ch.ID, "  "+ans+" \n") {
		t.Fatal("whitespace-padded correct answer rejected")
	}
}

func TestEvictionCap(t *testing.T) {
	s, _ := newTestService(Config{})
	var ids []string
	for i := 0; i < maxOutstanding+20; i++ {
		ids = append(ids, s.Issue(key(i)).ID)
	}
	if n := len(s.outstanding); n != maxOutstanding {
		t.Fatalf("outstanding = %d", n)
	}
	for i, id := range ids {
		if _, ok := s.Answer(id); ok != (i >= 20) {
			t.Fatalf("challenge %d stored = %v: want the 20 oldest evicted", i, ok)
		}
	}
}

func TestMultipleSessionsIndependent(t *testing.T) {
	s, _ := newTestService(Config{})
	chA := s.Issue(key(10))
	chB := s.Issue(key(11))
	ansB, _ := s.Answer(chB.ID)
	if !s.Verify(chB.ID, ansB) {
		t.Fatal("B's answer rejected")
	}
	if _, ok := s.Answer(chA.ID); !ok {
		t.Fatal("B's solve touched A's challenge")
	}
	ansA, _ := s.Answer(chA.ID)
	if !s.Verify(chA.ID, ansA) {
		t.Fatal("A's answer rejected")
	}
}

func TestDeterministicQuestionsPerSeed(t *testing.T) {
	a, _ := newTestService(Config{Seed: 7})
	b, _ := newTestService(Config{Seed: 7})
	for i := 0; i < 20; i++ {
		if a.Issue(key(i)).Question != b.Issue(key(i)).Question {
			t.Fatal("same seed produced different challenges")
		}
	}
}
