package serve

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the decode-and-validate path both POST handlers
// run on an untrusted body (never a session): it must not panic, and
// every request it accepts must lie inside the validated ranges.
func FuzzDecode(f *testing.F) {
	f.Add(false, []byte(`{"scenario":"plain","seed":7,"nodes":4,"metrics":["computations"]}`))
	f.Add(false, []byte(`{"source":"PROGRAM x\nEND\n","questions":[{"label":"q","text":"{? Sums}"}]}`))
	f.Add(false, []byte(`{"scenario":"bogus","nodes":-2,"deadline_ms":-5}`))
	f.Add(true, []byte(`{"scenario":"crashy","budget":12,"threshold":0.25,"max_depth":2}`))
	f.Add(true, []byte(`{"source":"x","threshold":1}`))
	f.Add(true, []byte(`{"nodes":1e400}`))
	const maxNodes = 16
	s := NewServer(Config{MaxNodes: maxNodes})
	f.Fuzz(func(t *testing.T, diagnose bool, body []byte) {
		var (
			nodes            int
			source, scenario string
		)
		if diagnose {
			var req DiagnoseRequest
			if s.decodeRequest(bytes.NewReader(body), &req) != nil {
				return
			}
			if req.Threshold < 0 || req.Threshold >= 1 {
				t.Fatalf("accepted threshold %g outside [0, 1)", req.Threshold)
			}
			if req.Budget < 0 || req.MaxDepth < 0 || req.DeadlineMS < 0 {
				t.Fatalf("accepted negative budget/max_depth/deadline: %+v", req)
			}
			nodes, source, scenario = req.Nodes, req.Source, req.Scenario
		} else {
			var req SessionRequest
			if s.decodeRequest(bytes.NewReader(body), &req) != nil {
				return
			}
			if req.DeadlineMS < 0 || req.MaxVirtualTimeNS < 0 {
				t.Fatalf("accepted negative deadline/virtual-time cap: %+v", req)
			}
			for i, q := range req.Questions {
				if q.Text == "" {
					t.Fatalf("accepted question %d with empty text", i)
				}
			}
			nodes, source, scenario = req.Nodes, req.Source, req.Scenario
		}
		if nodes < 1 || nodes > maxNodes {
			t.Fatalf("accepted nodes %d outside [1, %d]", nodes, maxNodes)
		}
		if source == "" && !ValidScenario(scenario) {
			t.Fatalf("accepted neither a source nor a known scenario (scenario %q)", scenario)
		}
		if scenario != "" && !ValidScenario(scenario) {
			t.Fatalf("accepted unknown scenario %q", scenario)
		}
	})
}
