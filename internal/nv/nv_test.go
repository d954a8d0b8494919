package nv

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSentenceCanonicalises(t *testing.T) {
	s := NewSentence("Sum", "B", "A", "B", "A")
	if got, want := len(s.Nouns), 2; got != want {
		t.Fatalf("NewSentence kept %d nouns, want %d (%v)", got, want, s.Nouns)
	}
	if s.Nouns[0] != "A" || s.Nouns[1] != "B" {
		t.Fatalf("NewSentence order = %v, want [A B]", s.Nouns)
	}
}

func TestSentenceEqualIgnoresConstructionOrder(t *testing.T) {
	a := NewSentence("Sum", "X", "Y", "Z")
	b := NewSentence("Sum", "Z", "Y", "X")
	if !a.Equal(b) {
		t.Fatalf("sentences %v and %v should be equal", a, b)
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestSentenceEqualDistinguishesVerbAndNouns(t *testing.T) {
	base := NewSentence("Sum", "A")
	cases := []Sentence{
		NewSentence("Max", "A"),
		NewSentence("Sum", "B"),
		NewSentence("Sum", "A", "B"),
		NewSentence("Sum"),
	}
	for _, c := range cases {
		if base.Equal(c) {
			t.Errorf("%v should not equal %v", base, c)
		}
		if base.Key() == c.Key() {
			t.Errorf("key collision between %v and %v", base, c)
		}
	}
}

func TestSentenceContains(t *testing.T) {
	s := NewSentence("Send", "P1", "Msg7")
	if !s.Contains("P1") || !s.Contains("Msg7") {
		t.Fatalf("Contains misses a participating noun in %v", s)
	}
	if s.Contains("P2") {
		t.Fatalf("Contains reports absent noun in %v", s)
	}
}

func TestSentenceStringNotation(t *testing.T) {
	if got, want := NewSentence("Sum", "A").String(), "{A Sum}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := NewSentence("Send", "P", "A").String(), "{A,P Send}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := NewSentence("Idle").String(), "{Idle}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: NewSentence is idempotent — rebuilding from a canonical
// sentence's own nouns yields an equal sentence.
func TestNewSentenceIdempotentProperty(t *testing.T) {
	f := func(verb string, nouns []string) bool {
		ids := make([]NounID, len(nouns))
		for i, n := range nouns {
			ids[i] = NounID(n)
		}
		s := NewSentence(VerbID(verb), ids...)
		again := NewSentence(s.Verb, s.Nouns...)
		return s.Equal(again) && s.Key() == again.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is injective over (verb, noun-set) up to canonical order.
func TestSentenceKeyInjectiveProperty(t *testing.T) {
	f := func(v1, v2 string, n1, n2 []string) bool {
		toIDs := func(ss []string) []NounID {
			ids := make([]NounID, len(ss))
			for i, s := range ss {
				ids[i] = NounID(strings.ReplaceAll(s, "\x1f", "_"))
			}
			return ids
		}
		a := NewSentence(VerbID(strings.ReplaceAll(v1, "\x1f", "_")), toIDs(n1)...)
		b := NewSentence(VerbID(strings.ReplaceAll(v2, "\x1f", "_")), toIDs(n2)...)
		return a.Equal(b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: noun permutation never changes a sentence's identity.
func TestSentencePermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nouns []string) bool {
		ids := make([]NounID, len(nouns))
		for i, n := range nouns {
			ids[i] = NounID(n)
		}
		a := NewSentence("V", ids...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		b := NewSentence("V", ids...)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Kind: CostCount, Value: 3}
	b := Cost{Kind: CostCount, Value: 4}
	sum, err := a.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.Value != 7 || sum.Kind != CostCount {
		t.Fatalf("Add = %v, want 7 ops", sum)
	}
}

func TestCostAddRejectsKindMismatch(t *testing.T) {
	a := Cost{Kind: CostCount, Value: 3}
	b := Cost{Kind: CostTime, Value: 4}
	if _, err := a.Add(b); err == nil {
		t.Fatal("Add across kinds should fail")
	}
}

func TestCostScale(t *testing.T) {
	c := Cost{Kind: CostTime, Value: 10}
	if got := c.Scale(0.25); got.Value != 2.5 || got.Kind != CostTime {
		t.Fatalf("Scale = %v", got)
	}
}

func TestCostKindString(t *testing.T) {
	for kind, want := range map[CostKind]string{
		CostTime: "ns", CostCount: "ops", CostBytes: "bytes", CostPercent: "%",
	} {
		if got := kind.String(); got != want {
			t.Errorf("CostKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
	if got := CostKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind should include numeric value, got %q", got)
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Kind: CostCount, Value: 42}
	if got := c.String(); got != "42 ops" {
		t.Errorf("Cost.String() = %q", got)
	}
}

var sinkKey string

func BenchmarkSentenceKey(b *testing.B) {
	s := NewSentence("Send", "node3", "arrayA", "msg")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = s.Key()
	}
}

func BenchmarkNewSentence(b *testing.B) {
	nouns := []NounID{"d", "c", "b", "a", "b", "c"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewSentence("V", nouns...)
	}
}

// A NewSentence hit canonicalises on the stack and returns the interner's
// stored copy: no allocation, whatever the noun count, and the same
// identity the miss that stored it returned.
func TestNewSentenceHitAllocatesNothing(t *testing.T) {
	for _, nouns := range [][]NounID{nil, {"hitA"}, {"hitC", "hitA", "hitB"}} {
		miss := NewSentence("HitVerb", nouns...)
		hit := NewSentence("HitVerb", nouns...)
		if miss.Handle() == 0 || hit.Handle() != miss.Handle() || hit.Key() != miss.Key() {
			t.Fatalf("%d nouns: miss handle/key = %d/%q, hit = %d/%q",
				len(nouns), miss.Handle(), miss.Key(), hit.Handle(), hit.Key())
		}
		if n := testing.AllocsPerRun(200, func() {
			sinkKey = NewSentence("HitVerb", nouns...).Key()
		}); n != 0 {
			t.Errorf("NewSentence hit with %d nouns allocates %v times, want 0", len(nouns), n)
		}
	}
}

// Guard against accidental reuse of reflect-based equality in hot paths:
// Equal must agree with reflect.DeepEqual on canonical sentences.
func TestSentenceEqualMatchesDeepEqual(t *testing.T) {
	f := func(v string, n1, n2 []string) bool {
		toIDs := func(ss []string) []NounID {
			ids := make([]NounID, len(ss))
			for i, s := range ss {
				ids[i] = NounID(s)
			}
			return ids
		}
		a := NewSentence(VerbID(v), toIDs(n1)...)
		b := NewSentence(VerbID(v), toIDs(n2)...)
		return a.Equal(b) == reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
