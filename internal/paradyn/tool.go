package paradyn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nvmap/internal/cmrts"
	"nvmap/internal/daemon"
	"nvmap/internal/dyninst"
	"nvmap/internal/hist"
	"nvmap/internal/machine"
	"nvmap/internal/mapping"
	"nvmap/internal/mdl"
	"nvmap/internal/nv"
	"nvmap/internal/obs"
	"nvmap/internal/pif"
	"nvmap/internal/sas"
	"nvmap/internal/vtime"
)

// IdleRoutine is the pseudo-routine the tool's machine adapter fires
// around node idle intervals; the standard library's idle_time metric
// instruments it.
const IdleRoutine = "MACH_idle"

// Verbs for the dynamic sentences the tool's gating instrumentation
// maintains in the per-node SASes.
const (
	// VerbArrayActive marks a parallel array currently passed to an
	// executing node code block (Section 6.1's boolean protocol).
	VerbArrayActive nv.VerbID = "ArrayActive"
	// VerbBlockExec marks a node code block currently executing.
	VerbBlockExec nv.VerbID = "BlockExecutes"
)

// Hierarchy names the tool maintains.
const (
	HierMachine = "Machine"
	HierCode    = "Code"
	HierStmts   = "CMFstmts"
	HierArrays  = "CMFarrays"
)

// Options configures a Tool.
type Options struct {
	// SampleEvery is the virtual-time interval between metric samples
	// deposited into histograms. Zero selects 50µs.
	SampleEvery vtime.Duration
	// HistBins sets histogram resolution (0 = hist.DefaultBins).
	HistBins int
	// Obs attaches the observability plane: sampling rounds and PIF
	// import record spans, the daemon channel registers its traffic
	// metrics and batch spans, and the per-node SASes record
	// notification spans. Nil (the default) disables all of it.
	Obs *obs.Plane
}

// Tool is the measurement system bound to one application run.
type Tool struct {
	rt   *cmrts.Runtime
	mach *machine.Machine
	inst *dyninst.Manager
	lib  *mdl.Library
	opts Options

	// Axis is the where-axis resource display.
	Axis *WhereAxis
	// Loaded holds static mapping information once LoadPIF has run.
	Loaded *pif.Loaded
	// SASes are the per-node Sets of Active Sentences: one per node for
	// the whole session, holding the gating sentences and any other
	// level's (a SAS monitor registers its questions here too).
	SASes *sas.Registry

	// Dynamic mapping state (Section 6.1).
	arraysByName map[string][]cmrts.ArrayID
	arrayNames   map[cmrts.ArrayID]string
	gating       bool
	dynMapping   bool
	// blockSents and arraySents hold the gating sentences
	// {block BlockExecutes} and {array ArrayActive}, resolved the first
	// time the tool sees each block or array name, so a dispatch fire or
	// a focus predicate carries a resolved sentence instead of building
	// one per event.
	blockSents map[string]nv.Sentence
	arraySents map[string]nv.Sentence
	// gate holds the gating sentences of the last dispatch seen (see
	// dispatchSentences): every node fires the dispatcher with the same
	// block and arguments, so they are resolved once per dispatch, not
	// once per node.
	gate []nv.Sentence

	// idleEntry and idleExit are the idle pseudo-points, resolved once so
	// an idle interval fires them without hashing their names.
	idleEntry, idleExit dyninst.PointRef

	// Static mapping indexes from PIF.
	stmtBlocks map[string][]string // statement noun -> block function names
	blockStmts map[string][]string

	enabled    []*EnabledMetric
	lastSample vtime.Time
	blockT     *blockTimers
	// shed is the governor-driven degradation level: each level doubles
	// the effective sampling interval and raises the event pump's drain
	// floor (batching harder). 0 is full fidelity.
	shed int
	// sampleBuf is the reusable batch SampleAll assembles before one
	// SendBatch; the channel copies messages out, so the buffer is
	// safely reused across sampling rounds.
	sampleBuf []daemon.Message

	// channel is the daemon conduit of Section 5: the instrumentation
	// library emits dynamic mapping information and performance samples
	// onto it and the data manager (this Tool) drains it, interleaved
	// in emission order.
	channel *daemon.Channel

	// droppedSamples counts samples lost to channel overflow, per
	// metric ID — the degradation ledger.
	droppedSamples map[string]int

	// removedIDs is the removal ledger: every deallocated runtime array
	// ID, kept forever. A noun definition re-delivered for one of these
	// (a recovered node replaying its registrations) is ignored — a
	// crash must not resurrect a deallocated noun.
	removedIDs map[cmrts.ArrayID]bool

	// lostNodes records nodes declared permanently lost, for the
	// per-focus partial-answer annotations.
	lostNodes []LostNodeMark

	// obsT, when non-nil, records sampling-round and PIF-import spans
	// (see Options.Obs).
	obsT *obs.Tracer

	// mapsShared marks stmtBlocks/blockStmts as aliases of a cached
	// prototype's maps; a second LoadPIF copies them before appending.
	mapsShared bool

	// drainFn is drainChannel's delivery callback, built once so the
	// per-event drain does not allocate a closure.
	drainFn func([]daemon.Message) error
}

// toolProto caches the session-independent products of one LoadPIF call
// for a (static mapping file, node count) pair: the loaded registries,
// the fully built where axis (base hierarchies plus the PIF's), and the
// statement/block indexes. Everything cached is immutable — the axis is
// Cloned per tool, the maps are shared read-only (copy-on-write on a
// second LoadPIF), and pif.Loaded is only ever read after Load returns —
// so sessions over the same program skip the import entirely.
type toolProto struct {
	loaded     *pif.Loaded
	axis       *WhereAxis
	stmtBlocks map[string][]string
	blockStmts map[string][]string
}

type protoKey struct {
	pf    *pif.File
	nodes int
}

// protoCache memoizes LoadPIF products per (file pointer, node count).
// Bounded: a pathological stream of distinct files (e.g. per-session
// topology merges) resets the table rather than growing it.
var protoCache struct {
	sync.Mutex
	m map[protoKey]*toolProto
}

// baseAxisCache memoizes the pre-PIF where axis per node count (the
// Machine hierarchy plus the fixed runtime Code routines).
var baseAxisCache struct {
	sync.Mutex
	m map[int]*WhereAxis
}

// LostNodeMark records one permanently lost node for answer annotation.
type LostNodeMark struct {
	Node int
	At   vtime.Time
}

// EnabledMetric is one active metric-focus pair with its histogram
// stream.
type EnabledMetric struct {
	Metric   *mdl.Metric
	Focus    Focus
	Instance *mdl.Instance
	Hist     *hist.Histogram

	tool      *Tool
	index     int
	focusStr  string // Focus.String(), rendered once at enable time
	lastValue float64
	lastTime  vtime.Time
	disabled  bool
	// degraded is set once any of this pair's samples is lost to
	// channel overflow: the histogram has holes from then on.
	degraded bool
}

// Degraded reports whether any of this pair's samples was lost to
// channel overflow, leaving holes in the histogram. The aggregate
// Value is unaffected (it reads the instrumentation counters
// directly).
func (em *EnabledMetric) Degraded() bool { return em.degraded }

// Partial returns a non-empty annotation when this pair's answer is
// incomplete because a node covered by its focus was permanently lost:
// "(partial: lost node N at T)". Rather than silently report the
// survivors' aggregate as the whole truth, the tool marks every answer
// the dead node should have contributed to. A focus constrained to a
// different node is unaffected and returns "".
func (em *EnabledMetric) Partial() string {
	if em.tool == nil || len(em.tool.lostNodes) == 0 {
		return ""
	}
	focusNode := -1
	if r, ok := em.Focus.Part(HierMachine); ok {
		if n, err := strconv.Atoi(strings.TrimPrefix(r.Name, "node")); err == nil {
			focusNode = n
		}
	}
	var parts []string
	for _, l := range em.tool.lostNodes {
		if focusNode >= 0 && l.Node != focusNode {
			continue
		}
		parts = append(parts, fmt.Sprintf("lost node %d at %v", l.Node, l.At))
	}
	if len(parts) == 0 {
		return ""
	}
	return "(partial: " + strings.Join(parts, ", ") + ")"
}

// New builds a tool over a runtime. The machine adapter (idle
// pseudo-points and the histogram sampler) attaches immediately.
func New(rt *cmrts.Runtime, lib *mdl.Library, opts Options) (*Tool, error) {
	if rt == nil || lib == nil {
		return nil, fmt.Errorf("paradyn: runtime and metric library are required")
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 50 * vtime.Microsecond
	}
	t := &Tool{
		rt:           rt,
		mach:         rt.Machine(),
		inst:         rt.Inst(),
		lib:          lib,
		opts:         opts,
		Axis:         NewWhereAxis(),
		SASes:        sas.NewRegistry(rt.Machine().Nodes(), sas.Options{Obs: opts.Obs}),
		arraysByName: make(map[string][]cmrts.ArrayID),
		arrayNames:   make(map[cmrts.ArrayID]string),
		blockSents:   make(map[string]nv.Sentence),
		arraySents:   make(map[string]nv.Sentence),
		stmtBlocks:   make(map[string][]string),
		blockStmts:   make(map[string][]string),
		channel:      daemon.NewChannel(),

		droppedSamples: make(map[string]int),
		removedIDs:     make(map[cmrts.ArrayID]bool),

		obsT: opts.Obs.Trace(),
	}
	t.channel.SetObs(opts.Obs)
	// Account every sample lost to channel overflow and mark its
	// metric-focus pair degraded. Mapping records never reach this
	// observer — the channel parks them for retry instead.
	t.channel.OnDrop(func(m daemon.Message) {
		if m.Kind != daemon.KindSample {
			return
		}
		t.droppedSamples[m.Sample.MetricID]++
		if m.Sample.Enabled >= 0 && m.Sample.Enabled < len(t.enabled) {
			t.enabled[m.Sample.Enabled].degraded = true
		}
	})
	// Under the Backpressure policy a full channel stalls the sender
	// while the data manager drains — the lossless option.
	t.channel.OnBackpressure(t.drainChannel)
	t.idleEntry = t.inst.Resolve(dyninst.Entry(IdleRoutine))
	t.idleExit = t.inst.Resolve(dyninst.Exit(IdleRoutine))
	t.buildBaseHierarchies()
	t.mach.Observe(t.machineEvent)
	return t, nil
}

// Runtime returns the measured runtime.
func (t *Tool) Runtime() *cmrts.Runtime { return t.rt }

// Library returns the metric library.
func (t *Tool) Library() *mdl.Library { return t.lib }

// Inst returns the instrumentation manager.
func (t *Tool) Inst() *dyninst.Manager { return t.inst }

// buildBaseHierarchies installs the pre-PIF axis: the Machine hierarchy
// for the partition and the fixed runtime Code routines. The axis is a
// pure function of the node count, so a prototype is built once per
// count and Cloned per tool.
func (t *Tool) buildBaseHierarchies() {
	nodes := t.mach.Nodes()
	baseAxisCache.Lock()
	proto := baseAxisCache.m[nodes]
	baseAxisCache.Unlock()
	if proto == nil {
		proto = NewWhereAxis()
		for n := 0; n < nodes; n++ {
			proto.AddPath(HierMachine, fmt.Sprintf("node%d", n))
		}
		for _, routine := range []string{
			cmrts.RoutineAlloc, cmrts.RoutineArgs, cmrts.RoutineBroadcast,
			cmrts.RoutineCleanup, cmrts.RoutineCompute, cmrts.RoutineDispatch,
			cmrts.RoutineReduceMax, cmrts.RoutineReduceMin, cmrts.RoutineReduceSum,
			cmrts.RoutineRotate, cmrts.RoutineScan, cmrts.RoutineSend,
			cmrts.RoutineShift, cmrts.RoutineSort, cmrts.RoutineTranspose,
		} {
			proto.AddPath(HierCode, routine)
		}
		baseAxisCache.Lock()
		if baseAxisCache.m == nil || len(baseAxisCache.m) >= 64 {
			baseAxisCache.m = make(map[int]*WhereAxis)
		}
		baseAxisCache.m[nodes] = proto
		baseAxisCache.Unlock()
	}
	t.Axis = proto.Clone()
}

// shedDrainFloor is the event pump's base drain threshold under
// shedding: at shed level k the pump lets the channel accumulate
// 64<<(k-1) messages before draining, amortising drain overhead when
// the governor has asked the tool to back off. Accessors, SampleAll and
// FlushChannel still drain eagerly, so no caller ever reads stale state.
const shedDrainFloor = 64

// Shed raises the tool's degradation level (it never lowers within a
// run): sampling interval doubles per level and the event pump batches
// its drains harder. The session's budget governor calls this, on the
// driving goroutine, when a sheddable ceiling comes under pressure.
func (t *Tool) Shed(level int) {
	if level > t.shed {
		t.shed = level
	}
}

// ShedLevel returns the current degradation level (0 = full fidelity).
func (t *Tool) ShedLevel() int { return t.shed }

// sampleInterval is the effective sampling interval: the configured one
// doubled per shed level.
func (t *Tool) sampleInterval() vtime.Duration {
	return t.opts.SampleEvery << uint(t.shed)
}

// machineEvent adapts machine events: idle intervals become pseudo-point
// fires for the idle_time metric, and every event drives the sampler.
func (t *Tool) machineEvent(e machine.Event) {
	if e.Kind == machine.EvIdle && e.Node >= 0 {
		ctx := dyninst.Context{Node: e.Node, Now: e.Start, Tag: e.Tag}
		t.idleEntry.Fire(ctx)
		ctx.Now = e.End
		t.idleExit.Fire(ctx)
	}
	if t.shed == 0 || t.channel.Pending() >= shedDrainFloor<<uint(t.shed-1) {
		t.drainChannel()
	}
	now := t.mach.GlobalNow()
	if now.Sub(t.lastSample) >= t.sampleInterval() {
		t.SampleAll(now)
	}
}

// LoadPIF imports static mapping information (Section 5: "Paradyn
// daemons import static mapping information via PIF files just after
// they load each application executable"). Hierarchy-root nouns become
// where-axis hierarchies; the mapping records build the statement/block
// indexes used for upward presentation and statement gating.
func (t *Tool) LoadPIF(f *pif.File) error {
	if t.obsT != nil {
		ref := t.obsT.Begin(obs.StagePIFImport, "", obs.NodeCP, t.mach.GlobalNow())
		defer func() { t.obsT.End(ref, t.mach.GlobalNow()) }()
	}
	// A first load onto a pristine base axis can adopt the cached
	// prototype wholesale: the clone is a couple of slab allocations
	// instead of re-importing the file and rebuilding the forest.
	key := protoKey{pf: f, nodes: t.mach.Nodes()}
	pristine := t.Loaded == nil && !t.Axis.dirty
	if pristine {
		protoCache.Lock()
		p := protoCache.m[key]
		protoCache.Unlock()
		if p != nil {
			t.Loaded = p.loaded
			t.Axis = p.axis.Clone()
			t.stmtBlocks = p.stmtBlocks
			t.blockStmts = p.blockStmts
			t.mapsShared = true
			return nil
		}
	}
	if t.mapsShared {
		// Appending to a prototype's maps would corrupt every other
		// session sharing them; copy before the second import below.
		t.stmtBlocks = copyIndex(t.stmtBlocks)
		t.blockStmts = copyIndex(t.blockStmts)
		t.mapsShared = false
	}
	loaded, err := pif.Load(f)
	if err != nil {
		return err
	}
	t.Loaded = loaded

	for _, level := range loaded.Registry.Levels() {
		for _, rootID := range loaded.Registry.Roots(level.ID) {
			root, _ := loaded.Registry.Noun(rootID)
			if len(loaded.Registry.Children(rootID)) > 0 {
				// A structured root (CMFstmts, CMFarrays) is a hierarchy.
				t.addNounTree(root.Name, rootID)
				continue
			}
			// A bare root (e.g. a compiler-generated block function at the
			// Base level) is a resource of its level's code hierarchy.
			hierarchy := string(level.ID)
			if level.Rank == 0 {
				hierarchy = HierCode
			}
			t.Axis.AddPath(hierarchy, root.Name)
		}
	}
	for _, def := range loaded.Table.Defs() {
		if len(def.Source.Nouns) == 0 || len(def.Destination.Nouns) == 0 {
			continue
		}
		srcNoun, _ := loaded.Registry.Noun(def.Source.Nouns[0])
		dstNoun, _ := loaded.Registry.Noun(def.Destination.Nouns[0])
		block, stmt := srcNoun.Name, dstNoun.Name
		t.stmtBlocks[stmt] = append(t.stmtBlocks[stmt], block)
		t.blockStmts[block] = append(t.blockStmts[block], stmt)
	}
	if pristine {
		proto := &toolProto{
			loaded:     loaded,
			axis:       t.Axis.Clone(),
			stmtBlocks: t.stmtBlocks,
			blockStmts: t.blockStmts,
		}
		// The tool now shares the maps it just built with the prototype.
		t.mapsShared = true
		protoCache.Lock()
		if protoCache.m == nil || len(protoCache.m) >= 64 {
			protoCache.m = make(map[protoKey]*toolProto)
		}
		protoCache.m[key] = proto
		protoCache.Unlock()
	}
	return nil
}

// copyIndex deep-copies a statement/block index.
func copyIndex(in map[string][]string) map[string][]string {
	out := make(map[string][]string, len(in))
	for k, v := range in {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// addNounTree mirrors a registry hierarchy into the where axis.
func (t *Tool) addNounTree(hierarchy string, rootID nv.NounID) {
	var walk func(id nv.NounID, path []string)
	walk = func(id nv.NounID, path []string) {
		for _, childID := range t.Loaded.Registry.Children(id) {
			child, _ := t.Loaded.Registry.Noun(childID)
			childPath := append(append([]string(nil), path...), child.Name)
			t.Axis.AddPath(hierarchy, childPath...)
			walk(childID, childPath)
		}
	}
	t.Axis.AddHierarchy(hierarchy)
	walk(rootID, nil)
}

// EnableDynamicMapping inserts the tool's mapping instrumentation at the
// runtime's designated mapping points, so array allocations and
// deallocations flow to the tool while the application runs (Section 4.1
// and 6.1, first step). Like all dynamic instrumentation it can be
// enabled and later removed.
func (t *Tool) EnableDynamicMapping() {
	if t.dynMapping {
		return
	}
	t.dynMapping = true
	t.inst.Insert(dyninst.Mapping(cmrts.RoutineAlloc), dyninst.Snippet{
		Name: "paradyn dynamic mapping: alloc",
		Do: func(ctx dyninst.Context) {
			if len(ctx.Args) < 2 {
				return
			}
			// The instrumentation library sends the new noun over the
			// daemon channel; the data manager applies it on drain.
			msg := daemon.Message{
				Kind: daemon.KindNounDef,
				At:   ctx.Now,
				Noun: &pif.NounRecord{
					Name:        ctx.Args[1],
					Abstraction: "CMF",
					Parent:      HierArrays,
					Description: "dynamically allocated parallel array",
				},
				Attrs: map[string]string{"id": ctx.Args[0]},
			}
			if len(ctx.Args) > 2 {
				msg.Attrs["shape"] = ctx.Args[2]
			}
			t.channel.Send(msg)
		},
	})
	t.inst.Insert(dyninst.Mapping(cmrts.RoutineFree), dyninst.Snippet{
		Name: "paradyn dynamic mapping: free",
		Do: func(ctx dyninst.Context) {
			if len(ctx.Args) < 2 {
				return
			}
			t.channel.Send(daemon.Message{
				Kind:    daemon.KindRemoval,
				At:      ctx.Now,
				Removal: ctx.Args[1],
				Attrs:   map[string]string{"id": ctx.Args[0]},
			})
		},
	})
}

// Channel exposes the daemon conduit (for inspection and statistics).
func (t *Tool) Channel() *daemon.Channel { return t.channel }

// drainChannel applies queued dynamic mapping information — the Data
// Manager "uses the dynamic mapping information in exactly the same way
// as it uses static mapping information". Called from the event pump and
// from accessors that need an up-to-date view.
func (t *Tool) drainChannel() {
	if t.channel.Pending() == 0 {
		return
	}
	if t.drainFn == nil {
		t.drainFn = func(ms []daemon.Message) error {
			for i := range ms {
				m := &ms[i]
				switch m.Kind {
				case daemon.KindSample:
					if s := &m.Sample; s.Enabled >= 0 && s.Enabled < len(t.enabled) {
						_ = t.enabled[s.Enabled].Hist.AddSpan(s.From, s.To, s.Value)
					}
				case daemon.KindNounDef:
					if m.Noun != nil && m.Attrs["id"] != "" {
						t.noteAllocation(cmrts.ArrayID(m.Attrs["id"]), m.Noun.Name)
					}
				case daemon.KindRemoval:
					if m.Attrs["id"] != "" {
						t.noteDeallocation(cmrts.ArrayID(m.Attrs["id"]), m.Removal)
					}
				}
			}
			return nil
		}
	}
	_, _ = t.channel.DrainBatch(t.drainFn)
}

// FlushChannel drains any queued messages (end-of-run bookkeeping: the
// final samples and mapping records reach the data manager even if no
// further machine event fires).
func (t *Tool) FlushChannel() { t.drainChannel() }

// NoteLostNode declares a node permanently lost at a crash instant.
// Every enabled metric whose focus covers the node answers with a
// partial annotation from then on.
func (t *Tool) NoteLostNode(node int, at vtime.Time) {
	for _, l := range t.lostNodes {
		if l.Node == node {
			return
		}
	}
	t.lostNodes = append(t.lostNodes, LostNodeMark{Node: node, At: at})
}

// LostNodes returns the permanently lost nodes in declaration order.
func (t *Tool) LostNodes() []LostNodeMark {
	return append([]LostNodeMark(nil), t.lostNodes...)
}

// DroppedSamples returns the per-metric count of samples lost to
// channel overflow.
func (t *Tool) DroppedSamples() map[string]int {
	out := make(map[string]int, len(t.droppedSamples))
	for k, v := range t.droppedSamples {
		out[k] = v
	}
	return out
}

func (t *Tool) noteAllocation(id cmrts.ArrayID, name string) {
	// A duplicate definition (a recovered node re-registering) is
	// idempotent, and a definition for a deallocated array is a
	// resurrection attempt — both are ignored.
	if t.arrayNames[id] != "" || t.removedIDs[id] {
		return
	}
	t.arraysByName[name] = append(t.arraysByName[name], id)
	t.arrayNames[id] = name
	t.Axis.AddPath(HierArrays, name)
	if a, ok := t.rt.Array(id); ok {
		for _, sub := range a.Subregions() {
			t.Axis.AddPath(HierArrays, name, sub.String())
		}
	}
}

func (t *Tool) noteDeallocation(id cmrts.ArrayID, name string) {
	t.removedIDs[id] = true
	ids := t.arraysByName[name]
	for i, x := range ids {
		if x == id {
			t.arraysByName[name] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	delete(t.arrayNames, id)
	if len(t.arraysByName[name]) == 0 {
		delete(t.arraysByName, name)
		if r, ok := t.Axis.Find(HierArrays + "/" + name); ok {
			for _, c := range r.Children() {
				_ = t.Axis.Remove(c.FullName())
			}
			_ = t.Axis.Remove(r.FullName())
		}
	}
}

// resolved returns {noun verb} from a per-verb sentence table, building
// and storing it on first sight of the noun.
func resolved(table map[string]nv.Sentence, verb nv.VerbID, noun string) nv.Sentence {
	sn, ok := table[noun]
	if !ok {
		sn = nv.NewSentence(verb, nv.NounID(noun))
		table[noun] = sn
	}
	return sn
}

// blockSentence returns {block BlockExecutes} for a node code block.
func (t *Tool) blockSentence(block string) nv.Sentence {
	return resolved(t.blockSents, VerbBlockExec, block)
}

// arraySentence returns {array ArrayActive} for a runtime array ID.
func (t *Tool) arraySentence(id string) nv.Sentence {
	return resolved(t.arraySents, VerbArrayActive, id)
}

// dispatchSentences returns the sentences a dispatch of block tag with
// arguments args activates (on) and deactivates (off). Both are windows
// on one list, [{tag BlockExecutes}, {a1 ArrayActive} … {an
// ArrayActive}, {tag BlockExecutes}]: on is its first n+1 entries, in the
// entry snippet's activation order, off its last n+1, in the exit
// snippet's deactivation order. The list of the previous dispatch is
// reused when the block and arguments equal, by content, the nouns of
// its sentences — a few short string compares — and rebuilt in place
// otherwise, growing only for a wider dispatch. The windows are valid
// until the next call.
func (t *Tool) dispatchSentences(tag string, args []string) (on, off []nv.Sentence) {
	g := t.gate
	if !sameDispatch(g, tag, args) {
		if n := len(args) + 2; cap(g) < n {
			g = make([]nv.Sentence, 0, n)
		}
		g = append(g[:0], t.blockSentence(tag))
		for _, id := range args {
			g = append(g, t.arraySentence(id))
		}
		g = append(g, g[0])
		t.gate = g
	}
	return g[:len(g)-1], g[1:]
}

// sameDispatch reports whether list g was built by dispatchSentences for
// block tag and arguments args.
func sameDispatch(g []nv.Sentence, tag string, args []string) bool {
	if len(g) != len(args)+2 || string(g[0].Nouns[0]) != tag {
		return false
	}
	for i, id := range args {
		if string(g[i+1].Nouns[0]) != id {
			return false
		}
	}
	return true
}

// EnableGating inserts the dispatcher snippet that maintains the per-node
// SAS sentences for array and block activity: "the CMRTS node code block
// dispatcher notifies the SAS of array activation/deactivation by
// sending the input arguments for each node code block to the SAS"
// (Section 6.1). Each fire is one notification batch to the node's SAS.
// Metric predicates for array and statement foci read these sentences,
// so relevance filtering on the SASes must never drop them.
func (t *Tool) EnableGating() {
	if t.gating {
		return
	}
	t.gating = true
	t.SASes.Keep(VerbBlockExec, VerbArrayActive)
	t.inst.Insert(dyninst.Entry(cmrts.RoutineDispatch), dyninst.Snippet{
		Name: "paradyn gating: block entry",
		Do: func(ctx dyninst.Context) {
			on, _ := t.dispatchSentences(ctx.Tag, ctx.Args)
			t.SASes.Node(ctx.Node).ActivateAll(on, ctx.Now)
		},
	})
	t.inst.Insert(dyninst.Exit(cmrts.RoutineDispatch), dyninst.Snippet{
		Name: "paradyn gating: block exit",
		Do: func(ctx dyninst.Context) {
			_, off := t.dispatchSentences(ctx.Tag, ctx.Args)
			_ = t.SASes.Node(ctx.Node).DeactivateAll(off, ctx.Now)
		},
	})
}

// predicateFor compiles a focus into a dyninst predicate. nil means
// unconstrained.
func (t *Tool) predicateFor(focus Focus) (dyninst.Predicate, error) {
	var preds []dyninst.Predicate

	if r, ok := focus.Part(HierMachine); ok {
		if !strings.HasPrefix(r.Name, "node") {
			return nil, fmt.Errorf("paradyn: machine focus %q is not a node", r.FullName())
		}
		n, err := strconv.Atoi(strings.TrimPrefix(r.Name, "node"))
		if err != nil {
			return nil, fmt.Errorf("paradyn: machine focus %q: %v", r.FullName(), err)
		}
		preds = append(preds, func(ctx dyninst.Context) bool { return ctx.Node == n })
	}

	if r, ok := focus.Part(HierArrays); ok {
		if !t.gating {
			return nil, fmt.Errorf("paradyn: array focus %q needs EnableGating", r.FullName())
		}
		name := r.Path[1] // array name (a subregion focus constrains by its array)
		preds = append(preds, func(ctx dyninst.Context) bool {
			if ctx.Node < 0 {
				return false
			}
			s := t.SASes.Node(ctx.Node)
			for _, id := range t.arraysByName[name] {
				if s.Active(t.arraySentence(string(id))) {
					return true
				}
			}
			return false
		})
	}

	if r, ok := focus.Part(HierStmts); ok {
		if !t.gating {
			return nil, fmt.Errorf("paradyn: statement focus %q needs EnableGating", r.FullName())
		}
		blocks := t.stmtBlocks[r.Name]
		if len(blocks) == 0 {
			return nil, fmt.Errorf("paradyn: no mapping for statement %q (load a PIF file)", r.Name)
		}
		// The statement's blocks are known now: resolve their sentences
		// where the predicate is built, not where it fires.
		sents := make([]nv.Sentence, len(blocks))
		for i, b := range blocks {
			sents[i] = t.blockSentence(b)
		}
		preds = append(preds, func(ctx dyninst.Context) bool {
			if ctx.Node < 0 {
				return false
			}
			s := t.SASes.Node(ctx.Node)
			for i := range sents {
				if s.Active(sents[i]) {
					return true
				}
			}
			return false
		})
	}

	if r, ok := focus.Part(HierCode); ok {
		// A Code focus constrains by the operation tag: runtime operations
		// carry the name of the node code block (or routine) that issued
		// them.
		fn := r.Name
		preds = append(preds, func(ctx dyninst.Context) bool { return ctx.Tag == fn })
	}

	switch len(preds) {
	case 0:
		return nil, nil
	case 1:
		return preds[0], nil
	default:
		return func(ctx dyninst.Context) bool {
			for _, p := range preds {
				if !p(ctx) {
					return false
				}
			}
			return true
		}, nil
	}
}

// EnableMetric instantiates a metric for a focus: the tool inserts the
// metric's probes (guarded by the focus predicate) into the running
// application and starts streaming samples into a folding histogram.
func (t *Tool) EnableMetric(metricID string, focus Focus) (*EnabledMetric, error) {
	m, ok := t.lib.Get(metricID)
	if !ok {
		return nil, fmt.Errorf("paradyn: unknown metric %q", metricID)
	}
	pred, err := t.predicateFor(focus)
	if err != nil {
		return nil, err
	}
	inst, err := m.Instantiate(t.inst, t.mach.Nodes(), pred)
	if err != nil {
		return nil, err
	}
	// A node-constrained focus covers one node; avg-aggregated metrics
	// divide by the focus width so collective operations count once.
	if _, ok := focus.Part(HierMachine); ok {
		inst.SetWidth(1)
	}
	h, err := hist.New(t.opts.HistBins, 20*vtime.Microsecond)
	if err != nil {
		return nil, err
	}
	em := &EnabledMetric{
		Metric:   m,
		Focus:    focus,
		Instance: inst,
		Hist:     h,
		tool:     t,
		index:    len(t.enabled),
		focusStr: focus.String(),
		lastTime: t.mach.GlobalNow(),
	}
	t.enabled = append(t.enabled, em)
	return em, nil
}

// Disable removes a metric-focus pair's instrumentation; its histogram
// and final value remain readable.
func (t *Tool) Disable(em *EnabledMetric) error {
	if em.disabled {
		return fmt.Errorf("paradyn: metric %s already disabled", em.Metric.ID)
	}
	em.disabled = true
	return em.Instance.Remove()
}

// Enabled lists the currently enabled metric-focus pairs.
func (t *Tool) Enabled() []*EnabledMetric { return append([]*EnabledMetric(nil), t.enabled...) }

// SampleAll deposits each enabled metric's delta since its last sample
// into its histogram. The machine adapter calls this on the sampling
// interval; experiments may call it at barriers for exact readings.
// Metrics are read and their samples batched in registration order.
func (t *Tool) SampleAll(now vtime.Time) {
	if now.Before(t.lastSample) {
		return
	}
	prev := t.lastSample
	t.lastSample = now
	// Reading the round spans the sampling interval [prev, now]; the
	// commit (the daemon batch and its drain) is instantaneous at now.
	var readRef obs.SpanRef
	if t.obsT != nil {
		readRef = t.obsT.Begin(obs.StageSampleRead, "", obs.NodeCP, prev)
	}
	buf := t.sampleBuf[:0]
	for _, em := range t.enabled {
		if !em.disabled {
			buf = em.sampleInto(now, buf)
		}
	}
	t.sampleBuf = buf
	if t.obsT != nil {
		t.obsT.End(readRef, now)
		ref := t.obsT.Begin(obs.StageSampleCommit, "", obs.NodeCP, now)
		defer t.obsT.End(ref, now)
	}
	// One sampling round travels the channel as one batch — the
	// instrumentation library aggregating a round's readings before
	// crossing the conduit — in the same per-metric order as before.
	t.channel.SendBatch(buf)
	// Samples travelled the daemon channel like any other message;
	// drain synchronously so histograms are current when the caller
	// reads them.
	t.drainChannel()
}

// Sample takes one sample of this metric at instant now. The reading
// travels the daemon channel (Section 5's single conduit) to the data
// manager, which deposits it into the histogram on drain — so a
// bounded channel may drop it, leaving a hole.
func (em *EnabledMetric) Sample(now vtime.Time) {
	var arr [1]daemon.Message
	for _, m := range em.sampleInto(now, arr[:0]) {
		em.tool.channel.Send(m)
	}
}

// sampleInto computes the metric's delta since its last sample and, when
// the metric is tool-attached, appends the sample message to buf for the
// caller to send (SampleAll batches a whole round). A detached metric
// deposits straight into its histogram, as before.
func (em *EnabledMetric) sampleInto(now vtime.Time, buf []daemon.Message) []daemon.Message {
	if now.Before(em.lastTime) {
		return buf
	}
	v := em.Instance.Value(now)
	delta := v - em.lastValue
	if delta != 0 {
		if em.tool != nil {
			buf = append(buf, daemon.Message{
				Kind: daemon.KindSample,
				At:   now,
				Sample: daemon.Sample{
					MetricID: em.Metric.ID,
					Focus:    em.focusStr,
					Value:    delta,
					From:     em.lastTime,
					To:       now,
					Enabled:  em.index,
				},
			})
		} else {
			_ = em.Hist.AddSpan(em.lastTime, now, delta)
		}
	}
	em.lastValue = v
	em.lastTime = now
	return buf
}

// Value reads the metric's current aggregate value.
func (em *EnabledMetric) Value(now vtime.Time) float64 { return em.Instance.Value(now) }

// ArrayIDs resolves a source-level array name to its live runtime
// arrays (dynamic mapping information).
func (t *Tool) ArrayIDs(name string) []cmrts.ArrayID {
	t.drainChannel()
	return append([]cmrts.ArrayID(nil), t.arraysByName[name]...)
}

// BlocksOf returns the node code blocks implementing a statement noun.
func (t *Tool) BlocksOf(stmt string) []string {
	return append([]string(nil), t.stmtBlocks[stmt]...)
}

// StmtsOf returns the statement nouns a block implements.
func (t *Tool) StmtsOf(block string) []string {
	return append([]string(nil), t.blockStmts[block]...)
}

// Blocks lists all block function names known from static mapping info.
func (t *Tool) Blocks() []string {
	out := make([]string, 0, len(t.blockStmts))
	for b := range t.blockStmts {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// PresentUp maps Base-level measurements to the higher level through the
// static mapping table (Section 3): each measurement's costs are
// assigned to destination sentences under the chosen policy. Unmapped
// measurements are returned separately, never dropped.
func (t *Tool) PresentUp(measured []mapping.Measurement, policy mapping.Policy) ([]mapping.Assigned, []mapping.Measurement, error) {
	if t.Loaded == nil {
		return nil, nil, fmt.Errorf("paradyn: no static mapping information loaded")
	}
	return mapping.Assign(t.Loaded.Table, measured, policy, mapping.AggSum)
}
