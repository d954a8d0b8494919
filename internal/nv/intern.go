package nv

import (
	"sync"
	"sync/atomic"
)

// Interning gives every noun, verb and canonical sentence a small integer
// handle so the hot paths of package sas can compare ints instead of
// strings. The paper's SAS is consulted on every activation notification
// and every measured event, so the cost of identifying a sentence is paid
// millions of times per run; a handle comparison is one word.
//
// Handles are process-wide (one table, shared by every Registry and SAS)
// and are never reclaimed: the vocabulary of a measured program is small
// and bounded, and stable handles are what make cross-SAS forwarding and
// checkpoint restore cheap. Handle 0 always means "not interned".

// NounHandle is the interned identity of a NounID. 0 means uninterned.
type NounHandle uint32

// VerbHandle is the interned identity of a VerbID. 0 means uninterned.
type VerbHandle uint32

// SentenceHandle is the interned identity of a canonical sentence key.
// 0 means uninterned.
type SentenceHandle uint32

// Interner owns the handle tables. The zero value is not usable; call
// NewInterner. All methods are safe for concurrent use; lookups on the
// hot path take a read lock only.
type Interner struct {
	mu        sync.RWMutex
	nouns     map[NounID]NounHandle
	nounIDs   []NounID
	verbs     map[VerbID]VerbHandle
	verbIDs   []VerbID
	sentences map[string]SentenceHandle
	// byHandle maps handle-1 to the canonical stored sentence. It is
	// copied on append and published atomically so handle lookups — the
	// hottest operation in the process — are a single load with no lock.
	// The pointed-to sentences are immutable.
	byHandle atomic.Pointer[[]*Sentence]
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		nouns:     make(map[NounID]NounHandle),
		verbs:     make(map[VerbID]VerbHandle),
		sentences: make(map[string]SentenceHandle),
	}
}

// DefaultInterner is the process-wide table. Registries intern their
// vocabulary into it as definitions arrive, and package sas interns every
// sentence it touches through it.
var DefaultInterner = NewInterner()

// Noun interns a noun ID, returning its stable handle.
func (in *Interner) Noun(id NounID) NounHandle {
	in.mu.RLock()
	h, ok := in.nouns[id]
	in.mu.RUnlock()
	if ok {
		return h
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nounLocked(id)
}

func (in *Interner) nounLocked(id NounID) NounHandle {
	if h, ok := in.nouns[id]; ok {
		return h
	}
	in.nounIDs = append(in.nounIDs, id)
	h := NounHandle(len(in.nounIDs))
	in.nouns[id] = h
	return h
}

// Verb interns a verb ID, returning its stable handle.
func (in *Interner) Verb(id VerbID) VerbHandle {
	in.mu.RLock()
	h, ok := in.verbs[id]
	in.mu.RUnlock()
	if ok {
		return h
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.verbLocked(id)
}

func (in *Interner) verbLocked(id VerbID) VerbHandle {
	if h, ok := in.verbs[id]; ok {
		return h
	}
	in.verbIDs = append(in.verbIDs, id)
	h := VerbHandle(len(in.verbIDs))
	in.verbs[id] = h
	return h
}

// NounID returns the ID interned under h.
func (in *Interner) NounID(h NounHandle) (NounID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if h == 0 || int(h) > len(in.nounIDs) {
		return "", false
	}
	return in.nounIDs[h-1], true
}

// VerbID returns the ID interned under h.
func (in *Interner) VerbID(h VerbHandle) (VerbID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if h == 0 || int(h) > len(in.verbIDs) {
		return "", false
	}
	return in.verbIDs[h-1], true
}

// InternStats is an intern-table size snapshot — the growth ledger the
// observability plane exports. Process-wide tables accumulate across
// sessions, so these values depend on process history.
type InternStats struct {
	Nouns     int
	Verbs     int
	Sentences int
}

// Stats counts the table's interned vocabulary.
func (in *Interner) Stats() InternStats {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return InternStats{
		Nouns:     len(in.nouns),
		Verbs:     len(in.verbs),
		Sentences: len(in.sentences),
	}
}

// appendKey builds the canonical map key of a sentence into b. It is the
// append form of Sentence.Key, shared so interning can key a lookup off a
// stack buffer without allocating.
func appendKey(b []byte, verb VerbID, nouns []NounID) []byte {
	b = append(b, verb...)
	for _, n := range nouns {
		b = append(b, keySep)
		b = append(b, n...)
	}
	return b
}

// canonical returns the stored sentence for a handle. Lock-free: the
// byHandle table is published atomically and its entries are immutable.
func (in *Interner) canonical(h SentenceHandle) *Sentence {
	return (*in.byHandle.Load())[h-1]
}

// SentencePtr interns *s (if needed) and returns the canonical stored
// sentence. The pointer is stable for the process lifetime and the
// pointed-to sentence must not be modified. This is the hot-path form:
// an already-interned sentence resolves with one atomic load and no
// copying.
func (in *Interner) SentencePtr(s *Sentence) *Sentence {
	if s.canon != nil {
		return s.canon
	}
	if s.handle != 0 {
		return in.canonical(s.handle)
	}
	return in.internSlow(s)
}

func (in *Interner) internSlow(s *Sentence) *Sentence {
	return in.internParts(s.Verb, s.Nouns)
}

// internParts returns the stored sentence for (verb, nouns), interning it
// on a miss. The key is built on the stack and nouns is only read — a
// miss stores its own copy — so a caller may pass a stack-backed noun
// list and a hit allocates nothing.
func (in *Interner) internParts(verb VerbID, nouns []NounID) *Sentence {
	var arr [96]byte
	key := appendKey(arr[:0], verb, nouns)
	in.mu.RLock()
	h, ok := in.sentences[string(key)]
	in.mu.RUnlock()
	if ok {
		return in.canonical(h)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if h, ok := in.sentences[string(key)]; ok {
		return in.canonical(h)
	}
	cs := &Sentence{Verb: verb, Nouns: append([]NounID(nil), nouns...)}
	cs.vh = in.verbLocked(cs.Verb)
	if len(cs.Nouns) > 0 {
		cs.nhs = make([]NounHandle, len(cs.Nouns))
		for i, n := range cs.Nouns {
			cs.nhs[i] = in.nounLocked(n)
		}
	}
	cs.ckey = string(key)
	cs.canon = cs
	var old []*Sentence
	if p := in.byHandle.Load(); p != nil {
		old = *p
	}
	cs.handle = SentenceHandle(len(old) + 1)
	grown := make([]*Sentence, len(old)+1)
	copy(grown, old)
	grown[len(old)] = cs
	in.byHandle.Store(&grown)
	in.sentences[cs.ckey] = cs.handle
	return cs
}

// Sentence interns s, returning the canonical stored copy with all
// handle fields populated. The noun list is keyed exactly as given —
// sentences built through NewSentence are already canonical, and
// interning must preserve the identity semantics of Key() for any
// caller-built sentence. Interning an already-interned sentence is free.
func (in *Interner) Sentence(s Sentence) Sentence {
	if s.handle != 0 {
		return s
	}
	return *in.internSlow(&s)
}

// LookupPtr returns the canonical stored sentence without interning on a
// miss. A sentence that was never interned cannot be active in any SAS,
// which lets membership tests fail fast without growing the table.
func (in *Interner) LookupPtr(s *Sentence) (*Sentence, bool) {
	if s.handle != 0 {
		return in.canonical(s.handle), true
	}
	var arr [96]byte
	key := appendKey(arr[:0], s.Verb, s.Nouns)
	in.mu.RLock()
	h, ok := in.sentences[string(key)]
	in.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return in.canonical(h), true
}

// HandleOf, VerbHandleOf and NounHandlesOf read a sentence's cached
// interned identity through a pointer, avoiding the receiver copy the
// value-method accessors would make on the hot path. The slice returned
// by NounHandlesOf must not be modified.
func HandleOf(s *Sentence) SentenceHandle    { return s.handle }
func VerbHandleOf(s *Sentence) VerbHandle    { return s.vh }
func NounHandlesOf(s *Sentence) []NounHandle { return s.nhs }

// HasNoun reports whether interned sentence s carries noun handle h.
// Sentences name at most a handful of nouns, so a linear scan of the
// cached handle slice beats any index; the loop is small enough to
// inline into the columnar sweeps that are its only hot callers.
func HasNoun(s *Sentence, h NounHandle) bool {
	for _, have := range s.nhs {
		if have == h {
			return true
		}
	}
	return false
}

// InternedPtr is Interner.SentencePtr on the default table.
func InternedPtr(s *Sentence) *Sentence { return DefaultInterner.SentencePtr(s) }

// LookupInternedPtr is Interner.LookupPtr on the default table.
func LookupInternedPtr(s *Sentence) (*Sentence, bool) { return DefaultInterner.LookupPtr(s) }
