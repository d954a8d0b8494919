package main

import (
	"strings"
	"testing"
	"time"
)

// goodConfig is a baseline that validates cleanly; cases mutate it.
func goodConfig() soakConfig {
	return soakConfig{
		sessions: 500,
		seed:     1,
		timeout:  time.Minute,
		minNodes: 1,
		maxNodes: 8,
	}
}

func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*soakConfig)
		wantErr string // substring of the usage error
	}{
		{"zero sessions", func(c *soakConfig) { c.sessions = 0 }, "-sessions must be positive"},
		{"negative sessions", func(c *soakConfig) { c.sessions = -25 }, "-sessions must be positive"},
		{"zero timeout", func(c *soakConfig) { c.timeout = 0 }, "-timeout must be positive"},
		{"negative timeout", func(c *soakConfig) { c.timeout = -time.Second }, "-timeout must be positive"},
		{"zero min nodes", func(c *soakConfig) { c.minNodes = 0 }, "node range must be positive"},
		{"negative max nodes", func(c *soakConfig) { c.maxNodes = -4 }, "node range must be positive"},
		{"inverted node range", func(c *soakConfig) { c.minNodes, c.maxNodes = 8, 2 }, "exceeds -max-nodes"},
		{"node range above partitions", func(c *soakConfig) { c.minNodes, c.maxNodes = 16, 32 }, "largest supported partition"},
		{"node range between partitions", func(c *soakConfig) { c.minNodes, c.maxNodes = 3, 3 }, "no supported partition size"},
		{"negative max ops", func(c *soakConfig) { c.maxOps = -1 }, "-max-ops must be non-negative"},
		{"negative max vtime", func(c *soakConfig) { c.maxVTime = -time.Microsecond }, "-max-vtime must be non-negative"},
		{"negative max backlog", func(c *soakConfig) { c.maxBacklog = -2 }, "-max-backlog must be non-negative"},
		{"no-budget vs max-ops", func(c *soakConfig) { c.noBudget = true; c.maxOps = 100 }, "contradicts"},
		{"no-budget vs max-vtime", func(c *soakConfig) { c.noBudget = true; c.maxVTime = time.Millisecond }, "contradicts"},
		{"no-budget vs max-backlog", func(c *soakConfig) { c.noBudget = true; c.maxBacklog = 4 }, "contradicts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if err == nil {
				t.Fatalf("validate accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateAcceptsAndDerivesNodeChoices(t *testing.T) {
	cases := []struct {
		name        string
		mutate      func(*soakConfig)
		wantChoices []int
	}{
		{"defaults", func(c *soakConfig) {}, []int{1, 2, 4, 8}},
		{"narrow node window", func(c *soakConfig) { c.minNodes, c.maxNodes = 2, 4 }, []int{2, 4}},
		{"single partition", func(c *soakConfig) { c.minNodes, c.maxNodes = 8, 8 }, []int{8}},
		{"window past the top keeps the overlap", func(c *soakConfig) { c.minNodes, c.maxNodes = 4, 32 }, []int{4, 8}},
		{"no-budget alone", func(c *soakConfig) { c.noBudget = true }, []int{1, 2, 4, 8}},
		{"pinned budget alone", func(c *soakConfig) { c.maxOps = 5000 }, []int{1, 2, 4, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			if err := cfg.validate(); err != nil {
				t.Fatalf("validate rejected %+v: %v", cfg, err)
			}
			if len(cfg.nodeChoices) != len(tc.wantChoices) {
				t.Fatalf("nodeChoices %v, want %v", cfg.nodeChoices, tc.wantChoices)
			}
			for i, n := range tc.wantChoices {
				if cfg.nodeChoices[i] != n {
					t.Fatalf("nodeChoices %v, want %v", cfg.nodeChoices, tc.wantChoices)
				}
			}
		})
	}
}

// TestGeneratorHonorsWindows runs the scenario generator (not the
// sessions) across many seeds and checks every draw lands inside the
// validated windows, including the pinned-budget override.
func TestGeneratorHonorsWindows(t *testing.T) {
	cfg := goodConfig()
	cfg.minNodes, cfg.maxNodes = 2, 4
	cfg.maxOps = 7777
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 200; seed++ {
		sc := genScenario(&rng{state: seed}, &cfg)
		if sc.nodes != 2 && sc.nodes != 4 {
			t.Fatalf("seed %d: nodes %d outside [2, 4]", seed, sc.nodes)
		}
		if sc.budget == nil || sc.budget.MaxOps != 7777 {
			t.Fatalf("seed %d: pinned budget not applied: %+v", seed, sc.budget)
		}
	}

	cfg = goodConfig()
	cfg.noBudget = true
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 200; seed++ {
		if sc := genScenario(&rng{state: seed}, &cfg); sc.budget != nil {
			t.Fatalf("seed %d: -no-budget scenario still has a budget: %+v", seed, sc.budget)
		}
	}
}

// TestDefaultWindowsPreserveHistoricalDraws pins that the default
// configuration reproduces the pre-flag generator byte for byte, so
// soak seeds filed in old failure reports still reproduce.
func TestDefaultWindowsPreserveHistoricalDraws(t *testing.T) {
	cfg := goodConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	legacyNodes := func(r *rng) int { return []int{1, 2, 4, 8}[r.intn(4)] }
	for seed := uint64(1); seed <= 100; seed++ {
		sc := genScenario(&rng{state: seed}, &cfg)
		// Replay the draw order: genProgram first, then nodes, the
		// retired worker-count draw, the fault plan's seed.
		r := &rng{state: seed}
		_ = genProgram(r)
		if want := legacyNodes(r); sc.nodes != want {
			t.Fatalf("seed %d: nodes %d, legacy draw %d", seed, sc.nodes, want)
		}
		r.next()
		if want := int64(r.next() % (1 << 31)); sc.plan != nil && sc.plan.Seed != want {
			t.Fatalf("seed %d: plan seed %d, legacy draw %d", seed, sc.plan.Seed, want)
		}
	}
}
