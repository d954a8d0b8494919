// Package nv implements the Noun-Verb (NV) model for parallel program
// performance explanation from Irvin & Miller, "Mechanisms for Mapping
// High-Level Parallel Performance Data" (ICPP 1996).
//
// In the NV model, nouns are any program elements for which performance
// measurements can be made (programs, subroutines, loops, arrays,
// statements, processors, messages, ...) and verbs are any potential
// actions taken by or performed on a noun (execution, assignment,
// reduction, I/O, ...). An instance of a program construct described by a
// verb is a sentence: a verb, a set of participating nouns, and a cost.
// The collection of nouns and verbs of a particular software or hardware
// layer defines a level of abstraction.
//
// This package holds the vocabulary: levels, nouns, verbs, sentences and
// costs, plus a Registry that validates and indexes them. Relations
// between levels live in package mapping; run-time activity lives in
// package sas.
package nv

import (
	"fmt"
	"strings"
)

// LevelID identifies a level of abstraction, e.g. "CMF", "CMRTS", "Base".
type LevelID string

// Canonical level IDs and ranks for the reproduction's stack, from most
// abstract (the CM Fortran source) down to the hardware topology. These
// are the single source of truth for level naming; enumerate a session's
// actual levels with Session.Levels() rather than matching these
// strings ad hoc.
const (
	LevelIDCMF      LevelID = "CMF"     // CM Fortran source constructs
	LevelIDCMRTS    LevelID = "CMRTS"   // CM run-time system routines
	LevelIDBase     LevelID = "Base"    // functions of the executable image
	LevelIDMachine  LevelID = "Machine" // partition nodes
	LevelIDHardware LevelID = "HW"      // hardware topology (nodes/sockets/cores, links)
)

// The canonical rank of each level: larger is more abstract. Ranks must
// be unique within a registry; the hardware topology sits at the bottom.
const (
	RankCMF      = 2
	RankCMRTS    = 1
	RankBase     = 0
	RankMachine  = -1
	RankHardware = -2
)

// Level describes one level of abstraction. Levels are ordered by Rank:
// a larger Rank is more abstract (closer to the programmer), a smaller
// Rank is closer to the hardware. Mapping "upward" means toward larger
// ranks.
type Level struct {
	ID          LevelID
	Name        string
	Description string
	Rank        int
}

// NounID uniquely identifies a noun within a Registry.
type NounID string

// Noun is a program element for which performance measurements can be
// made. Nouns form per-level hierarchies through Parent (the basis of the
// Paradyn where axis): for example array TOT is a child of function
// CORNER, which is a child of module bow.fcm.
type Noun struct {
	ID          NounID
	Name        string
	Level       LevelID
	Description string
	// Parent is the enclosing noun in the same level's resource
	// hierarchy, or empty for a hierarchy root.
	Parent NounID
}

// VerbID uniquely identifies a verb within a Registry.
type VerbID string

// Verb is a potential action taken by or performed on a noun. Units
// documents the measurement unit of costs for sentences built from this
// verb (e.g. "% CPU", "operations", "seconds").
type Verb struct {
	ID          VerbID
	Name        string
	Level       LevelID
	Description string
	Units       string
}

// Sentence is an instance of a program construct described by a verb: the
// verb plus the set of participating nouns. The noun set is kept in
// canonical (sorted, deduplicated) order so sentences compare and hash
// consistently. A Sentence deliberately carries no cost: costs are
// measured for executions of sentences (see Cost and package sas).
//
// The unexported fields cache the sentence's interned identity (see
// intern.go); they are filled by NewSentence and Interned and are zero on
// a sentence built by hand or decoded from a checkpoint — such sentences
// re-intern lazily the first time a SAS touches them.
type Sentence struct {
	Verb  VerbID
	Nouns []NounID

	vh     VerbHandle
	nhs    []NounHandle
	handle SentenceHandle
	ckey   string
	// canon points to the interner's stored copy (self-referential on the
	// stored copy itself); value copies inherit it, so resolving a copy
	// back to its canonical pointer is one nil-check.
	canon *Sentence
}

// keySep separates key components; it cannot occur in IDs we mint.
const keySep = '\x1f'

// NewSentence builds a canonical sentence from a verb and participating
// nouns. Duplicate nouns are removed and the noun set is sorted. The
// result is interned: repeated construction of the same sentence returns
// the stored canonical copy without allocating — the noun set is
// canonicalised in a stack buffer that only an interner miss copies to
// the heap.
func NewSentence(verb VerbID, nouns ...NounID) Sentence {
	var arr [8]NounID
	set := arr[:0]
	if len(nouns) > len(arr) {
		set = make([]NounID, 0, len(nouns))
	}
	for _, n := range nouns {
		pos, dup := len(set), false
		for i, x := range set {
			if x == n {
				dup = true
				break
			}
			if x > n {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		set = append(set, "")
		copy(set[pos+1:], set[pos:])
		set[pos] = n
	}
	return *DefaultInterner.internParts(verb, set)
}

// Key returns a canonical string key for use in maps. Two sentences have
// equal keys exactly when they are Equal. Interned sentences return their
// cached key without allocating.
func (s Sentence) Key() string {
	if s.ckey != "" {
		return s.ckey
	}
	return string(appendKey(nil, s.Verb, s.Nouns))
}

// Handle returns the interned sentence handle (0 if not interned).
func (s Sentence) Handle() SentenceHandle { return s.handle }

// VerbHandle returns the interned verb handle (0 if not interned).
func (s Sentence) VerbHandle() VerbHandle { return s.vh }

// Equal reports whether s and o denote the same sentence.
func (s Sentence) Equal(o Sentence) bool {
	if s.Verb != o.Verb || len(s.Nouns) != len(o.Nouns) {
		return false
	}
	for i := range s.Nouns {
		if s.Nouns[i] != o.Nouns[i] {
			return false
		}
	}
	return true
}

// Contains reports whether noun n participates in the sentence.
func (s Sentence) Contains(n NounID) bool {
	for _, x := range s.Nouns {
		if x == n {
			return true
		}
	}
	return false
}

// String renders the sentence in the paper's notation, e.g. "{A Sum}".
func (s Sentence) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range s.Nouns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(n))
	}
	if len(s.Nouns) > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(string(s.Verb))
	b.WriteByte('}')
	return b.String()
}

// CostKind classifies what resource a cost measures.
type CostKind int

// The cost kinds used throughout the reproduction. The paper names time,
// memory and channel bandwidth as example resources; counts and CPU
// percentage appear in its metric tables (Figure 9, Figure 2).
const (
	CostTime    CostKind = iota // virtual nanoseconds
	CostCount                   // dimensionless event count
	CostBytes                   // memory or channel payload bytes
	CostPercent                 // percentage, e.g. "% CPU"
)

// String returns the unit suffix for the kind.
func (k CostKind) String() string {
	switch k {
	case CostTime:
		return "ns"
	case CostCount:
		return "ops"
	case CostBytes:
		return "bytes"
	case CostPercent:
		return "%"
	default:
		return fmt.Sprintf("CostKind(%d)", int(k))
	}
}

// Cost is a measured resource consumption for executions of a sentence.
type Cost struct {
	Kind  CostKind
	Value float64
}

// Add returns the sum of two costs of the same kind.
func (c Cost) Add(o Cost) (Cost, error) {
	if c.Kind != o.Kind {
		return Cost{}, fmt.Errorf("nv: cannot add %v cost to %v cost", o.Kind, c.Kind)
	}
	return Cost{Kind: c.Kind, Value: c.Value + o.Value}, nil
}

// Scale returns the cost multiplied by f (used by the split assignment
// policy in package mapping).
func (c Cost) Scale(f float64) Cost { return Cost{Kind: c.Kind, Value: c.Value * f} }

// String renders the cost with its unit, e.g. "42 ops" or "1.25e+06 ns".
func (c Cost) String() string { return fmt.Sprintf("%g %s", c.Value, c.Kind) }
