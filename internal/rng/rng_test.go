package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values out of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream should not reproduce the parent stream.
	p := New(7)
	pSkipped := p.Uint64() // Split consumed one value from the parent.
	_ = pSkipped
	matches := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("child stream matched parent stream %d/100 times", matches)
	}
}

func TestForkStable(t *testing.T) {
	a := New(99).Fork("agents")
	b := New(99).Fork("agents")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Fork with same name diverged at %d", i)
		}
	}
	c := New(99).Fork("workload")
	d := New(99).Fork("agents")
	diff := false
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Fork with different names produced identical streams")
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.Fork("x")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Fork advanced the parent stream")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) returned %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(11)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates more than 10%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(17)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %f", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(29)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestExpMean(t *testing.T) {
	r := New(31)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Exp(5)
	}
	mean := sum / draws
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("Exp(5) sample mean = %f", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Fatal("Exp of non-positive mean should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(37)
	const draws = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean = %f", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("Normal variance = %f", variance)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := New(43)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2, 1.5)
		if v < 2 {
			t.Fatalf("Pareto(2,1.5) returned %f below scale", v)
		}
	}
	if r.Pareto(0, 1) != 0 {
		t.Fatal("Pareto with zero scale should return the scale")
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(47)
	const draws = 100000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Poisson(3)
	}
	mean := float64(sum) / draws
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("Poisson(3) sample mean = %f", mean)
	}
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) should be 0")
	}
	// Large-mean path.
	sum = 0
	for i := 0; i < 10000; i++ {
		sum += r.Poisson(200)
	}
	mean = float64(sum) / 10000
	if math.Abs(mean-200) > 3 {
		t.Fatalf("Poisson(200) sample mean = %f", mean)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(61)
	weights := []float64{0, 1, 3, 0, 6}
	counts := make([]int, len(weights))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight buckets selected: %v", counts)
	}
	if !(counts[4] > counts[2] && counts[2] > counts[1]) {
		t.Fatalf("weighted ordering violated: %v", counts)
	}
	if r.WeightedChoice([]float64{0, 0}) != 0 {
		t.Fatal("all-zero weights should return index 0")
	}
}

func TestHexKeyProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		r := New(seed)
		k := r.HexKey(n)
		if len(k) != n {
			return false
		}
		for i := 0; i < len(k); i++ {
			c := k[i]
			if !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if New(1).HexKey(0) != "" {
		t.Fatal("HexKey(0) should be empty")
	}
}

func TestDigitKeyProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%19) + 1
		v := New(seed).DigitKeyValue(n)
		k := string(AppendFixedDigits(nil, v, n))
		if len(k) != n {
			return false
		}
		for i := 0; i < len(k); i++ {
			if k[i] < '0' || k[i] > '9' {
				return false
			}
		}
		// The wire spelling parses back to the draw, at its own width only.
		if got, ok := ParseFixedDigits(k, n); !ok || got != v {
			return false
		}
		_, shorter := ParseFixedDigits(k[1:], n)
		_, longer := ParseFixedDigits("0"+k, n)
		_, signed := ParseFixedDigits("-"+k[1:], n)
		return !shorter && !longer && !signed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHexKeyCollisionRate(t *testing.T) {
	r := New(67)
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		k := r.HexKey(32)
		if seen[k] {
			t.Fatalf("collision for 128-bit key after %d draws", i)
		}
		seen[k] = true
	}
}

// TestAppendFixedDigitsMatchesDigitKeyValue: a key is one Intn(10) per digit,
// most significant first — the draw order fixed-seed runs replay — and its
// wire spelling is those digits.
func TestAppendFixedDigitsMatchesDigitKeyValue(t *testing.T) {
	a := New(77)
	b := New(77)
	var buf []byte
	for i := 0; i < 50; i++ {
		n := i % 13
		want := make([]byte, n)
		for j := range want {
			want[j] = byte('0' + a.Intn(10))
		}
		buf = AppendFixedDigits(buf[:0], b.DigitKeyValue(n), n)
		if string(buf) != string(want) {
			t.Fatalf("n=%d: AppendFixedDigits(DigitKeyValue) = %q, the digit draws = %q", n, buf, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("DigitKeyValue consumed the stream differently from n digit draws")
	}
}
