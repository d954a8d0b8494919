package nvmap

import "fmt"

// UsageError reports a misused configuration option: the option (or
// Config field) at fault and why its value is rejected. NewSession
// returns one — retrievable with errors.As — for contradictions the
// machine layer would otherwise surface as untyped errors: a
// non-positive WithNodes, a topology too small for the partition, a
// placement without a topology, and the like.
type UsageError struct {
	// Option names the functional option or Config field at fault,
	// e.g. "WithNodes" or "WithPlacement".
	Option string
	// Reason says why the value is rejected.
	Reason string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("nvmap: %s: %s", e.Option, e.Reason)
}

// validate rejects contradictory configurations up front with typed
// *UsageError values, before any machine state is built. It sees the
// Config after defaulting (Nodes already resolved to 8 when unset).
func (cfg *Config) validate() error {
	if cfg.Nodes <= 0 {
		return &UsageError{
			Option: "WithNodes",
			Reason: fmt.Sprintf("partition size must be positive, got %d", cfg.Nodes),
		}
	}
	topo := cfg.Topology
	if topo == nil && cfg.Machine != nil {
		topo = cfg.Machine.Topology
	}
	if topo != nil {
		if err := topo.Validate(); err != nil {
			return &UsageError{Option: "WithTopology", Reason: err.Error()}
		}
		if leaves := topo.Leaves(); leaves < cfg.Nodes {
			return &UsageError{
				Option: "WithTopology",
				Reason: fmt.Sprintf("topology has %d leaves but the partition needs %d nodes", leaves, cfg.Nodes),
			}
		}
	}
	if cfg.Placement != nil {
		if topo == nil {
			return &UsageError{
				Option: "WithPlacement",
				Reason: "placement given without a topology (add WithTopology)",
			}
		}
		if len(cfg.Placement) != cfg.Nodes {
			return &UsageError{
				Option: "WithPlacement",
				Reason: fmt.Sprintf("placement has %d entries for %d nodes", len(cfg.Placement), cfg.Nodes),
			}
		}
		seen := make(map[int]int, len(cfg.Placement))
		for i, leaf := range cfg.Placement {
			if leaf < 0 || leaf >= topo.Leaves() {
				return &UsageError{
					Option: "WithPlacement",
					Reason: fmt.Sprintf("node %d placed on leaf %d, outside [0,%d)", i, leaf, topo.Leaves()),
				}
			}
			if prev, dup := seen[leaf]; dup {
				return &UsageError{
					Option: "WithPlacement",
					Reason: fmt.Sprintf("nodes %d and %d both placed on leaf %d", prev, i, leaf),
				}
			}
			seen[leaf] = i
		}
	}
	return nil
}
