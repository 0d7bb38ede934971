package core

import (
	"fmt"
	"math"
	"testing"
)

// TestVerdictTextsRoundTripAndOverflow pins the stored verdict's encoding: a
// verdict comes back exactly, under its own model epoch only; one text is one
// number however often it recurs; and what the record cannot hold — a field
// wider than its slot, or a text past number 65,535 — is refused, not
// truncated.
func TestVerdictTextsRoundTripAndOverflow(t *testing.T) {
	texts := newVerdictTexts()
	v := Verdict{Class: ClassRobot, Confidence: Definite, Reason: "followed a hidden link", AtRequest: 12, Origin: "node-b"}
	sv, ok := texts.store(v, 7)
	if !ok || sv.Text != 1 {
		t.Fatalf("store = %+v, %v; want text 1", sv, ok)
	}
	if got, ok := texts.load(sv, 7); !ok || got != v {
		t.Fatalf("load = %+v, %v; want %+v", got, ok, v)
	}
	if _, ok := texts.load(sv, 8); ok {
		t.Fatal("a verdict was served under another model epoch")
	}
	if again, _ := texts.store(v, 9); again.Text != sv.Text {
		t.Fatalf("the same text got number %d, then %d", sv.Text, again.Text)
	}

	for _, bad := range []Verdict{
		{AtRequest: -1}, {AtRequest: math.MaxUint32 + 1}, {Class: 256}, {Confidence: -1},
	} {
		if sv, ok := texts.store(bad, 0); ok {
			t.Errorf("store(%+v) = %+v, want refused", bad, sv)
		}
	}

	for n := 2; n <= math.MaxUint16; n++ {
		if _, ok := texts.store(Verdict{Reason: fmt.Sprint(n)}, 0); !ok {
			t.Fatalf("text %d refused before the table was full", n)
		}
	}
	if sv, ok := texts.store(Verdict{Reason: "one too many"}, 0); ok {
		t.Fatalf("text 65,536 was numbered: %+v", sv)
	}
	if got, ok := texts.load(sv, 7); !ok || got != v {
		t.Fatalf("a full table lost text 1: %+v, %v", got, ok)
	}
}
