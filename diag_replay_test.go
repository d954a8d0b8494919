package nvmap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"nvmap/internal/diagnose"
	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/paradyn"
	"nvmap/internal/vtime"
)

// The consultant measures a refinement step's sibling probes in one
// shared replay and answers every route-attribution probe from one
// recorded run. The reference below recomputes each of those answers
// the obvious way, one fresh replay per probe built only from the
// public session and tool API, so a shared replay that mixes up its
// siblings, denominators or links cannot hide behind goldens it wrote
// itself.

// referenceFraction replays sc once with dynamic mapping, gating and
// the instrumentation of the one probe (hyp, focus) — the hypothesis's
// metrics at the focus, or a route attribution — and returns the
// probe's fraction. route reports which of the two it was.
func referenceFraction(t *testing.T, sc DiagScenario, opts []Option, hyp, focus string) (frac float64, route bool) {
	t.Helper()
	s, err := NewSession(sc.Source, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s.Tool.EnableDynamicMapping()
	s.Tool.EnableGating()

	var stmt, link string
	perNode := false
	var resources []*paradyn.Resource
	for _, piece := range strings.Split(focus, ",") {
		hier, name, _ := strings.Cut(strings.TrimPrefix(piece, "/"), "/")
		switch hier {
		case paradyn.HierHW:
			link = name
			continue
		case paradyn.HierStmts:
			stmt = name
		case paradyn.HierMachine:
			perNode = true
		}
		resources = append(resources, s.Tool.Axis.AddPath(hier, name))
	}
	if link != "" || stmt != "" && !perNode && hyp == paradyn.HypCommBound && s.Machine.Topology() != nil {
		return routeReference(t, s, stmt, link), true
	}

	f, err := paradyn.NewFocus(resources...)
	if err != nil {
		t.Fatal(err)
	}
	var metrics []string
	for _, h := range paradyn.DefaultHypotheses() {
		if h.ID == hyp {
			metrics = h.Metrics
		}
	}
	var ems []*paradyn.EnabledMetric
	for _, mid := range metrics {
		em, err := s.Tool.EnableMetric(mid, f)
		if err != nil {
			t.Fatal(err)
		}
		ems = append(ems, em)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	denom := s.Elapsed().Seconds() * float64(s.Machine.Nodes())
	if perNode {
		denom = s.Elapsed().Seconds()
	}
	total := 0.0
	for _, em := range ems {
		total += em.Value(s.Now())
	}
	return total / denom, false
}

// routeReference runs s observing every routed message and returns the
// share of the bytes crossing link (any link when link is "") that stmt
// sent: a message is the statement's when one of its blocks is active
// in the sender's SAS at send time.
func routeReference(t *testing.T, s *Session, stmt, link string) float64 {
	t.Helper()
	var a, b int
	if link != "" {
		if _, err := fmt.Sscanf(link, "link_hw%d_hw%d", &a, &b); err != nil {
			t.Fatalf("link focus %q: %v", link, err)
		}
	}
	var sents []nv.Sentence
	for _, blk := range s.Tool.BlocksOf(stmt) {
		sents = append(sents, nv.NewSentence(paradyn.VerbBlockExec, nv.NounID(blk)))
	}
	var linkBytes, stmtBytes float64
	s.Machine.OnRoute(func(from, to, bytes int, links []machine.Link, at vtime.Time) {
		crosses := link == "" && len(links) > 0
		if link != "" {
			crosses = slices.ContainsFunc(links, func(l machine.Link) bool {
				return min(l.From, l.To) == a && max(l.From, l.To) == b
			})
		}
		if !crosses {
			return
		}
		linkBytes += float64(bytes)
		if slices.ContainsFunc(sents, s.Tool.SASes.Node(from).Active) {
			stmtBytes += float64(bytes)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if linkBytes == 0 {
		return 0
	}
	return stmtBytes / linkBytes
}

// perturbedSlack bounds how far a metric finding may sit from its
// per-probe reference when instrumentation perturbs the run.
const perturbedSlack = 0.01

// TestDiagnosisReplayReference requires every re-run finding of every
// corpus diagnosis to equal, bit for bit, its per-probe reference:
// under WithNoPerturbation all of them (instrumentation then costs no
// virtual time, so what else a shared replay measures cannot move a
// value), and under default perturbation the route findings (the route
// recording inserts exactly the per-probe replay's instrumentation).
// Metric findings under perturbation legitimately differ, by at most
// perturbedSlack: a shared replay's sibling snippets perturb the run
// every sibling is read from.
func TestDiagnosisReplayReference(t *testing.T) {
	for _, sc := range DiagnosisCorpus() {
		for _, exact := range []bool{true, false} {
			opts := sc.Opts
			mode := "perturbed"
			if exact {
				opts = append(opts[:len(opts):len(opts)], WithNoPerturbation())
				mode = "unperturbed"
			}
			rep, err := Diagnose(sc.Source, DiagnoseConfig{}, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, mode, err)
			}
			reruns, checked := 0, 0
			rep.Walk(func(f *diagnose.Finding) {
				if f.Source != diagnose.SourceRerun {
					return
				}
				reruns++
				want, route := referenceFraction(t, sc, opts, f.Hypothesis, f.Focus)
				if !exact && !route {
					if math.Abs(f.Fraction-want) > perturbedSlack {
						t.Errorf("%s/%s: %s at %s = %v, %v from its per-probe reference %v",
							sc.Name, mode, f.Hypothesis, f.Focus, f.Fraction, f.Fraction-want, want)
					}
					return
				}
				checked++
				if math.Float64bits(f.Fraction) != math.Float64bits(want) {
					t.Errorf("%s/%s: %s at %s = %v, per-probe reference %v",
						sc.Name, mode, f.Hypothesis, f.Focus, f.Fraction, want)
				}
			})
			if reruns > 0 && rep.Replays == 0 {
				t.Errorf("%s/%s: %d re-run findings but no replays counted", sc.Name, mode, reruns)
			}
			if exact && checked != reruns {
				t.Errorf("%s/%s: checked %d of %d re-run findings", sc.Name, mode, checked, reruns)
			}
			t.Logf("%s/%s: %d re-run findings from %d replays, %d checked", sc.Name, mode, reruns, rep.Replays, checked)
		}
	}
}

// cancelWriter is a PRINT sink that cancels a run's context at the first
// line past after — the first PRINT of the run after the ones already
// counted — so the run that printed is cut at a later operation
// boundary. The session's governor goroutine delivers the cut and
// offers no event to wait on; sleeping hands it the processor while the
// run is held inside the PRINT.
type cancelWriter struct {
	after, lines int
	cancel       context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	if w.lines > w.after && w.cancel != nil {
		w.cancel()
		w.cancel = nil
		time.Sleep(20 * time.Millisecond)
	}
	return len(p), nil
}

// TestDiagnoseContextCancelledInSharedReplay cancels a diagnosis while
// its first shared replay runs: the search returns the run's typed
// error, and no finding is answered from the cut replay.
func TestDiagnoseContextCancelledInSharedReplay(t *testing.T) {
	const src = `PROGRAM cutme
REAL H(4096)
REAL S
FORALL (I = 1:4096) H(I) = I
DO K = 1, 8
H = H * 1.0001 + H * H - H / 3.0 + SQRT(H)
S = SUM(H)
PRINT *, S
END DO
END
`
	var out strings.Builder
	s, err := NewSession(src, WithNodes(4), WithOutput(&out))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	perRun := strings.Count(out.String(), "\n")

	// The base run prints perRun lines; the next PRINT belongs to the
	// first replay, the CPUBound refinement's shared one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{after: perRun, cancel: cancel}
	var findings []diagnose.Finding
	cfg := DiagnoseConfig{OnFinding: func(f diagnose.Finding) { findings = append(findings, f) }}
	rep, err := DiagnoseContext(ctx, src, cfg, WithNodes(4), WithOutput(w))
	var se *SessionError
	if !errors.As(err, &se) || se.Kind != ErrorCancelled || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled diagnosis returned %v, %v; want a cancelled *SessionError", rep, err)
	}
	if se.At == 0 {
		t.Errorf("cut at %v: the replay was cancelled before it started, not during it", se.At)
	}
	if w.lines <= perRun {
		t.Errorf("%d lines printed: the base run never finished", w.lines)
	}
	if len(findings) == 0 {
		t.Error("no probe answered before the replay: the cancellation hit the base run")
	}
	for _, f := range findings {
		if f.Source != diagnose.SourceSampled {
			t.Errorf("finding %s at %s answered from the cut replay", f.Hypothesis, f.Focus)
		}
	}
}
