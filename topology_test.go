package nvmap

import (
	"errors"
	"strings"
	"testing"

	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/vtime"
)

const topoTestProgram = `PROGRAM t
REAL A(64)
REAL S
A = 1.0
S = SUM(A)
END
`

func ringTopo(n int) machine.Topology {
	return machine.Topology{GridX: n, GridY: 1, Torus: true, LinkHop: 1 * vtime.Microsecond}
}

func TestNewSessionUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		opts   []Option
		option string // expected UsageError.Option, "" = no error
	}{
		{"zero nodes explicit", []Option{WithNodes(0)}, "WithNodes"},
		{"negative nodes", []Option{WithNodes(-3)}, "WithNodes"},
		{"unset nodes default", nil, ""},
		{"config zero nodes defaults", []Option{WithConfig(Config{})}, ""},
		{"invalid topology", []Option{WithTopology(machine.Topology{GridX: 0, GridY: 1})}, "WithTopology"},
		{"too few leaves", []Option{WithNodes(8), WithTopology(machine.Topology{GridX: 2, GridY: 2})}, "WithTopology"},
		{"placement without topology", []Option{WithNodes(4), WithPlacement([]int{0, 1, 2, 3})}, "WithPlacement"},
		{"placement wrong length", []Option{WithNodes(4), WithTopology(ringTopo(4)), WithPlacement([]int{0, 1})}, "WithPlacement"},
		{"placement out of range", []Option{WithNodes(4), WithTopology(ringTopo(4)), WithPlacement([]int{0, 1, 2, 4})}, "WithPlacement"},
		{"placement duplicate", []Option{WithNodes(4), WithTopology(ringTopo(4)), WithPlacement([]int{0, 1, 1, 2})}, "WithPlacement"},
		{"valid topology", []Option{WithNodes(4), WithTopology(ringTopo(4))}, ""},
		{"valid placement", []Option{WithNodes(4), WithTopology(ringTopo(4)), WithPlacement([]int{3, 2, 1, 0})}, ""},
	}
	for _, c := range cases {
		_, err := NewSession(topoTestProgram, c.opts...)
		if c.option == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: err = %v, want *UsageError", c.name, err)
			continue
		}
		if ue.Option != c.option {
			t.Errorf("%s: UsageError.Option = %q, want %q", c.name, ue.Option, c.option)
		}
	}
}

func TestOptionOrdering(t *testing.T) {
	topo4 := ringTopo(4)
	topo8 := ringTopo(8)

	// WithConfig discards options before it.
	s, err := NewSession(topoTestProgram, WithTopology(topo4), WithNodes(4), WithConfig(Config{Nodes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Topology() != nil {
		t.Error("WithConfig after WithTopology should discard the topology")
	}
	if s.Machine.Nodes() != 2 {
		t.Errorf("nodes = %d, want 2 from WithConfig", s.Machine.Nodes())
	}

	// A later WithTopology overrides both an earlier one and the
	// Topology inside an earlier WithConfig.
	s, err = NewSession(topoTestProgram, WithConfig(Config{Nodes: 4, Topology: &topo4}), WithTopology(topo8))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Machine.Topology(); got == nil || got.GridX != 8 {
		t.Errorf("topology = %+v, want the later 8-ring", got)
	}

	// WithMachine and WithTopology compose: cost model from the machine
	// config, topology from the option.
	mc := machine.DefaultConfig(4)
	mc.MessageLatency = 99 * vtime.Microsecond
	s, err = NewSession(topoTestProgram, WithNodes(4), WithMachine(mc), WithTopology(topo4))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Machine.Config().MessageLatency; got != 99*vtime.Microsecond {
		t.Errorf("MessageLatency = %v, want the WithMachine value", got)
	}
	if got := s.Machine.Topology(); got == nil || got.GridX != 4 {
		t.Errorf("topology = %+v, want the 4-ring from WithTopology", got)
	}

	// A topology carried inside WithMachine survives when no
	// WithTopology overrides it.
	mc2 := machine.DefaultConfig(4)
	mc2.Topology = &topo4
	s, err = NewSession(topoTestProgram, WithNodes(4), WithMachine(mc2))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Machine.Topology(); got == nil || got.GridX != 4 {
		t.Errorf("topology = %+v, want the WithMachine topology", got)
	}
}

// TestZeroCostTopologyMatchesFlat pins the tentpole's compatibility
// guarantee: a topology with zero hop costs reproduces the flat
// machine's traces and metric values byte-for-byte — the hardware
// levels add mapping information without perturbing the cost model.
func TestZeroCostTopologyMatchesFlat(t *testing.T) {
	run := func(opts ...Option) (string, map[string]float64) {
		opts = append([]Option{WithNodes(4), WithSourceFile("t.fcm")}, opts...)
		s, err := NewSession(topoTestProgram, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr := s.EnableTrace()
		vals, _, err := s.RunMetrics("summation_time", "node_activations", "idle_time")
		if err != nil {
			t.Fatal(err)
		}
		return tr.Render(80) + "\n" + tr.Summary(), vals
	}
	flatTrace, flatVals := run()
	topoTrace, topoVals := run(WithTopology(machine.Topology{GridX: 4, GridY: 1, Torus: true}))
	if flatTrace != topoTrace {
		t.Error("zero-cost topology changes the execution trace")
	}
	for id, want := range flatVals {
		if got := topoVals[id]; got != want {
			t.Errorf("metric %s: flat %g vs zero-cost topology %g", id, want, got)
		}
	}
}

// TestTopologySessionPIF pins the PIF surface of a topology session: the
// hardware levels, the placement mappings, and the Levels() enumeration.
func TestTopologySessionPIF(t *testing.T) {
	s, err := NewSession(topoTestProgram,
		WithNodes(4),
		WithTopology(ringTopo(4)),
		WithPlacement([]int{0, 2, 1, 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := s.PIFText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hw0", "link_hw0_hw1", "Hosts", "Runs", "node3"} {
		if !strings.Contains(txt, want) {
			t.Errorf("PIF text missing %q", want)
		}
	}
	// Node 1 is placed on leaf 2 -> hw2 hosts node1.
	reg := s.Tool.Loaded.Registry
	if _, ok := reg.Level(nv.LevelIDHardware); !ok {
		t.Error("HW level not registered")
	}
	if _, ok := reg.Level(nv.LevelIDMachine); !ok {
		t.Error("Machine level not registered")
	}
	found := false
	for _, def := range s.PIF.Mappings {
		if def.Destination.Nouns[0] == "node1" && def.Source.Nouns[0] == "hw2" {
			found = true
		}
	}
	if !found {
		t.Error("placement mapping {hw2 Hosts} -> {node1 Runs} missing")
	}
}

func TestSessionLevels(t *testing.T) {
	// Flat session: CMF, CMRTS (virtual), Base — descending rank.
	s, err := NewSession(topoTestProgram, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	levels := s.Levels()
	var ids []nv.LevelID
	for _, l := range levels {
		ids = append(ids, l.ID)
	}
	want := []nv.LevelID{nv.LevelIDCMF, nv.LevelIDCMRTS, nv.LevelIDBase}
	if len(ids) != len(want) {
		t.Fatalf("levels = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("levels = %v, want %v", ids, want)
		}
	}
	for _, l := range levels {
		switch l.ID {
		case nv.LevelIDCMF:
			if l.Virtual || l.Nouns == 0 || l.Metrics == 0 {
				t.Errorf("CMF level: %+v", l)
			}
		case nv.LevelIDCMRTS:
			if !l.Virtual || l.Metrics == 0 || l.Rank != nv.RankCMRTS {
				t.Errorf("CMRTS level: %+v", l)
			}
		case nv.LevelIDBase:
			if l.Virtual || l.Nouns == 0 {
				t.Errorf("Base level: %+v", l)
			}
		}
	}

	// Topology session: Machine and HW at the bottom.
	s, err = NewSession(topoTestProgram, WithNodes(4), WithTopology(ringTopo(4)))
	if err != nil {
		t.Fatal(err)
	}
	levels = s.Levels()
	if len(levels) != 5 {
		t.Fatalf("topology session levels = %d, want 5", len(levels))
	}
	last := levels[len(levels)-1]
	if last.ID != nv.LevelIDHardware || last.Rank != nv.RankHardware || last.Nouns == 0 || last.Verbs == 0 {
		t.Errorf("bottom level: %+v", last)
	}
}

// TestPlacementReportDeterministic pins the golden guarantee: the
// placement-comparison report is byte-identical from run to run.
func TestPlacementReportDeterministic(t *testing.T) {
	base, err := ExperimentPlacement()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExperimentPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("placement report differs between two runs:\n%s\nvs\n%s", base, got)
	}
}
