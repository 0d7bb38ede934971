package baselines

import (
	"strings"
	"testing"
	"time"

	"botdetect/internal/features"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
)

func TestAgentLooksLikeRobot(t *testing.T) {
	robots := []string{
		"Googlebot/2.1 (+http://www.google.com/bot.html)",
		"Mozilla/5.0 (compatible; Yahoo! Slurp)",
		"wget/1.10", "curl/7.15", "libwww-perl/5.805", "Python-urllib/2.4",
		"EmailHarvester 1.0", "WebCrawler", "", "-",
	}
	for _, ua := range robots {
		if !AgentLooksLikeRobot(ua) {
			t.Fatalf("%q should look like a robot", ua)
		}
	}
	humans := []string{
		"Mozilla/5.0 (Windows NT 5.1) Firefox/1.5",
		"Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
		"Opera/9.0 (Windows NT 5.1; U; en)",
	}
	for _, ua := range humans {
		if AgentLooksLikeRobot(ua) {
			t.Fatalf("%q should not look like a robot", ua)
		}
	}
}

func TestHeuristicRobotsTxt(t *testing.T) {
	h := NewHeuristic()
	key := session.Key{IP: "1.1.1.1", UserAgent: "Mozilla/5.0 Firefox/1.5"}
	if h.IsRobot(key) {
		t.Fatal("browser UA should not be a robot before robots.txt fetch")
	}
	h.Observe(logfmt.Entry{Time: time.Now(), ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/robots.txt", Status: 200})
	if !h.IsRobot(key) {
		t.Fatal("session fetching robots.txt should be classified robot")
	}
}

func TestHeuristicMissesDisguisedRobot(t *testing.T) {
	// The documented limitation: a malicious robot forging a browser agent
	// and ignoring robots.txt passes the heuristic baseline.
	h := NewHeuristic()
	key := session.Key{IP: "2.2.2.2", UserAgent: "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5"}
	h.Observe(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/page1.html", Status: 200})
	if h.IsRobot(key) {
		t.Fatal("disguised robot unexpectedly caught by the heuristic")
	}
}

func navExamples(n int, noise float64, seed uint64) []features.Example {
	src := rng.New(seed)
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	out := make([]features.Example, 0, n)
	for i := 0; i < n; i++ {
		human := i%2 == 0
		var v features.Vector
		if human {
			v[features.EmbeddedObjPct] = clamp(0.6 + src.Normal(0, noise))
			v[features.ReferrerPct] = clamp(0.7 + src.Normal(0, noise))
			v[features.HTMLPct] = clamp(0.3 + src.Normal(0, noise))
		} else {
			v[features.EmbeddedObjPct] = clamp(0.05 + src.Normal(0, noise))
			v[features.ReferrerPct] = clamp(0.1 + src.Normal(0, noise))
			v[features.HTMLPct] = clamp(0.9 + src.Normal(0, noise))
		}
		out = append(out, features.Example{X: v, Human: human})
	}
	return out
}

func TestTrainNavTreeEmpty(t *testing.T) {
	if _, err := TrainNavTree(nil); err != ErrNoExamples {
		t.Fatalf("err = %v", err)
	}
}

func TestNavTreeLearnsSeparableData(t *testing.T) {
	ex := navExamples(400, 0.05, 3)
	tree, err := TrainNavTree(ex)
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ex); acc < 0.95 {
		t.Fatalf("training accuracy = %f", acc)
	}
	if tree.NodeCount() < 3 {
		t.Fatalf("tree did not split: %s", tree)
	}
	if !strings.Contains(tree.String(), "NavTree") {
		t.Fatal("String format")
	}
}

func TestNavTreeGeneralises(t *testing.T) {
	train := navExamples(400, 0.15, 5)
	test := navExamples(400, 0.15, 6)
	tree, err := TrainNavTree(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(test); acc < 0.8 {
		t.Fatalf("test accuracy = %f", acc)
	}
}

func TestNavTreeSingleClass(t *testing.T) {
	ex := []features.Example{{Human: true}, {Human: true}, {Human: true}}
	tree, err := TrainNavTree(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Predict(features.Vector{}) {
		t.Fatal("single-class tree should predict that class")
	}
	if tree.NodeCount() != 1 {
		t.Fatalf("single-class tree should be a leaf, nodes = %d", tree.NodeCount())
	}
	if tree.Accuracy(ex) != 1 {
		t.Fatal("accuracy on the training class should be 1")
	}
	if tree.Accuracy(nil) != 0 {
		t.Fatal("accuracy of empty set should be 0")
	}
}

func TestNavTreeMinLeafRespected(t *testing.T) {
	ex := navExamples(2*minLeaf-1, 0.3, 9)
	tree, err := TrainNavTree(ex)
	if err != nil {
		t.Fatal(err)
	}
	// Nine examples cannot make two leaves of five: no split is possible.
	if tree.NodeCount() != 1 {
		t.Fatalf("expected a single leaf, got %d nodes", tree.NodeCount())
	}
}
