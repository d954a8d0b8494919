// Package pifgen converts CM Fortran compiler listings into PIF files —
// the "simple utility that parses CM Fortran compiler output files" of
// Section 6.2: it scans the listing for parallel statements, parallel
// arrays and node code blocks, and produces a PIF file that defines the
// statements and arrays for the tool and describes the mappings from
// statements to code blocks.
//
// cmd/pifgen wraps this package as the command-line utility; tests and
// the experiment drivers call it directly.
package pifgen

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"nvmap/internal/machine"
	"nvmap/internal/nv"
	"nvmap/internal/pif"
)

// Levels and verbs the generated PIF declares.
const (
	// Deprecated: use nv.LevelIDCMF; enumerate a session's levels with
	// Session.Levels() instead of matching level names.
	LevelCMF = "CMF"
	// Deprecated: use nv.LevelIDBase; enumerate a session's levels with
	// Session.Levels() instead of matching level names.
	LevelBase = "Base"

	VerbExecutes = "Executes"
	VerbCPU      = "CPU Utilization"

	// Hierarchy-root nouns for the tool's where axis.
	RootStmts  = "CMFstmts"
	RootArrays = "CMFarrays"
)

// Hardware-topology vocabulary (see FromTopology).
const (
	// VerbHosts relates a hardware leaf to the logical node placed on
	// it: the placement-as-mapping source verb.
	VerbHosts = "Hosts"
	// VerbRoutes is the HW-level verb of link-traffic sentences: a
	// {link_hwA_hwB Routes} event fires per interconnect link a message
	// crosses.
	VerbRoutes = "Routes"
	// VerbRuns is the Machine-level verb of a logical node's activity.
	VerbRuns = "Runs"
	// RootHardware and RootLinks are the HW level's hierarchy roots.
	RootHardware = "Hardware"
	RootLinks    = "HWlinks"
	// RootMachine mirrors the tool's built-in Machine hierarchy.
	RootMachine = "Machine"
)

// FromListing parses a compiler listing and builds the PIF file.
func FromListing(r io.Reader) (*pif.File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	f := &pif.File{
		Levels: []pif.LevelRecord{
			{Name: LevelBase, Rank: 0, Description: "functions of the executable image"},
			{Name: LevelCMF, Rank: 2, Description: "CM Fortran source constructs"},
		},
		Nouns: []pif.NounRecord{
			{Name: RootStmts, Abstraction: LevelCMF, Description: "parallel statements"},
			{Name: RootArrays, Abstraction: LevelCMF, Description: "parallel arrays"},
		},
		Verbs: []pif.VerbRecord{
			{Name: VerbExecutes, Abstraction: LevelCMF, Units: "% CPU"},
			{Name: VerbCPU, Abstraction: LevelBase, Units: "% CPU"},
		},
	}

	var source string
	seenBlocks := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("pifgen: listing line %d: no record keyword in %q", lineNo, line)
		}
		rest = strings.TrimSpace(rest)
		switch key {
		case "program":
			// informational
		case "source":
			source = rest
		case "array":
			fields, err := parseFields(rest, lineNo)
			if err != nil {
				return nil, err
			}
			name, dims := fields["name"], fields["dims"]
			if name == "" {
				return nil, fmt.Errorf("pifgen: listing line %d: array record without name", lineNo)
			}
			f.Nouns = append(f.Nouns, pif.NounRecord{
				Name:        name,
				Abstraction: LevelCMF,
				Parent:      RootArrays,
				Description: fmt.Sprintf("parallel array %s (%s) in %s", name, dims, source),
			})
		case "statement":
			fields, err := parseFields(rest, lineNo)
			if err != nil {
				return nil, err
			}
			if fields["block"] == "-" || fields["block"] == "" {
				continue // serial statement: no mapping
			}
			stmt := "line" + fields["line"]
			f.Nouns = append(f.Nouns, pif.NounRecord{
				Name:        stmt,
				Abstraction: LevelCMF,
				Parent:      RootStmts,
				Description: fmt.Sprintf("line #%s in source file %s: %s", fields["line"], source, fields["text"]),
			})
			block := fields["block"]
			if !seenBlocks[block] {
				seenBlocks[block] = true
				f.Nouns = append(f.Nouns, pif.NounRecord{
					Name:        block,
					Abstraction: LevelBase,
					Description: "compiler generated function, source code not available",
				})
			}
			f.Mappings = append(f.Mappings, pif.MappingRecord{
				Source:      pif.SentenceRef{Nouns: []string{block}, Verb: VerbCPU},
				Destination: pif.SentenceRef{Nouns: []string{stmt}, Verb: VerbExecutes},
			})
		case "block":
			// Blocks were already declared when their statements were seen;
			// the record is validated for form only.
			if _, err := parseFields(rest, lineNo); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("pifgen: listing line %d: unknown record %q", lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pifgen: %w", err)
	}
	if len(f.Mappings) == 0 {
		return nil, fmt.Errorf("pifgen: listing contains no parallel statements")
	}
	return f, nil
}

// parseFields splits "k1=v1 k2=v2 ... text=\"...\"" records. The quoted
// text field, when present, must come last.
func parseFields(s string, lineNo int) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("pifgen: listing line %d: malformed field %q", lineNo, s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if strings.HasPrefix(s, `"`) {
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				return nil, fmt.Errorf("pifgen: listing line %d: unterminated quote", lineNo)
			}
			out[key] = s[1 : end+1]
			s = s[end+2:]
			continue
		}
		sp := strings.IndexByte(s, ' ')
		if sp < 0 {
			out[key] = s
			s = ""
		} else {
			out[key] = s[:sp]
			s = s[sp+1:]
		}
	}
	return out, nil
}

// LeafNoun names the PIF noun for one topology leaf. The name carries
// the full hardware path so it stays unique within the HW level: a
// single-socket single-core leaf is just its hardware node ("hw3"),
// deeper hierarchies append socket and core components ("hw3.s0.c1").
func LeafNoun(t *machine.Topology, leaf int) string {
	hw := t.LeafNode(leaf)
	sockets, cores := t.SocketsPerNode(), t.CoresPerSocket()
	if sockets == 1 && cores == 1 {
		return fmt.Sprintf("hw%d", hw)
	}
	socket := (leaf / cores) % sockets
	if cores == 1 {
		return fmt.Sprintf("hw%d.s%d", hw, socket)
	}
	return fmt.Sprintf("hw%d.s%d.c%d", hw, socket, leaf%cores)
}

// LinkNoun names the PIF noun for one interconnect link. Links are
// undirected at the noun level (one noun covers both directions), named
// by the lower hardware-node index first.
func LinkNoun(l machine.Link) string {
	a, b := l.From, l.To
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("link_hw%d_hw%d", a, b)
}

// FromTopology emits the static mapping information of a hardware
// topology and a placement: the Machine and HW levels of abstraction,
// the hardware resource tree (nodes, sockets, cores) and the
// interconnect links as HW-level nouns, the Hosts/Routes/Runs verbs,
// and one MAPPING record per logical node relating the leaf that hosts
// it to the node's Machine-level sentence — placement expressed as
// ordinary mapping information, so the SAS, the where axis and every
// question mechanism see hardware sentences with no special cases.
//
// The file composes with FromListing's output (distinct levels, nouns
// and verbs); the session merges both and loads them as one PIF.
func FromTopology(t *machine.Topology, placement []int, nodes int) *pif.File {
	f := &pif.File{
		Levels: []pif.LevelRecord{
			{Name: string(nv.LevelIDMachine), Rank: nv.RankMachine, Description: "partition nodes"},
			{Name: string(nv.LevelIDHardware), Rank: nv.RankHardware, Description: fmt.Sprintf("hardware topology: %v", t)},
		},
		Verbs: []pif.VerbRecord{
			{Name: VerbRuns, Abstraction: string(nv.LevelIDMachine), Units: "% CPU"},
			{Name: VerbHosts, Abstraction: string(nv.LevelIDHardware), Units: "nodes"},
			{Name: VerbRoutes, Abstraction: string(nv.LevelIDHardware), Units: "messages"},
		},
	}
	hwLevel := string(nv.LevelIDHardware)

	// The hardware resource tree: Hardware -> hw nodes -> sockets -> cores.
	f.Nouns = append(f.Nouns, pif.NounRecord{
		Name: RootHardware, Abstraction: hwLevel,
		Description: "hardware topology root",
	})
	sockets, cores := t.SocketsPerNode(), t.CoresPerSocket()
	for hw := 0; hw < t.HWNodes(); hw++ {
		x, y := t.Coord(hw)
		hwName := fmt.Sprintf("hw%d", hw)
		f.Nouns = append(f.Nouns, pif.NounRecord{
			Name: hwName, Abstraction: hwLevel, Parent: RootHardware,
			Description: fmt.Sprintf("hardware node at (%d,%d)", x, y),
		})
		if sockets == 1 && cores == 1 {
			continue
		}
		for s := 0; s < sockets; s++ {
			sName := fmt.Sprintf("hw%d.s%d", hw, s)
			f.Nouns = append(f.Nouns, pif.NounRecord{
				Name: sName, Abstraction: hwLevel, Parent: hwName,
				Description: fmt.Sprintf("socket %d of hw%d", s, hw),
			})
			if cores == 1 {
				continue
			}
			for c := 0; c < cores; c++ {
				f.Nouns = append(f.Nouns, pif.NounRecord{
					Name: fmt.Sprintf("hw%d.s%d.c%d", hw, s, c), Abstraction: hwLevel, Parent: sName,
					Description: fmt.Sprintf("core %d of socket %d of hw%d", c, s, hw),
				})
			}
		}
	}

	// The interconnect links, undirected, under their own root.
	if t.GridX > 1 || t.GridY > 1 {
		f.Nouns = append(f.Nouns, pif.NounRecord{
			Name: RootLinks, Abstraction: hwLevel,
			Description: "interconnect links",
		})
		seen := map[string]bool{}
		for _, l := range t.Links() {
			name := LinkNoun(l)
			if seen[name] {
				continue
			}
			seen[name] = true
			f.Nouns = append(f.Nouns, pif.NounRecord{
				Name: name, Abstraction: hwLevel, Parent: RootLinks,
				Description: fmt.Sprintf("interconnect link hw%d-hw%d", min(l.From, l.To), max(l.From, l.To)),
			})
		}
	}

	// The Machine level mirrors the tool's built-in node hierarchy.
	f.Nouns = append(f.Nouns, pif.NounRecord{
		Name: RootMachine, Abstraction: string(nv.LevelIDMachine),
		Description: "partition root",
	})
	for n := 0; n < nodes; n++ {
		f.Nouns = append(f.Nouns, pif.NounRecord{
			Name: fmt.Sprintf("node%d", n), Abstraction: string(nv.LevelIDMachine), Parent: RootMachine,
			Description: fmt.Sprintf("logical node %d", n),
		})
	}

	// Placement as mapping information: {leaf Hosts} -> {node Runs}.
	for n := 0; n < nodes; n++ {
		f.Mappings = append(f.Mappings, pif.MappingRecord{
			Source:      pif.SentenceRef{Nouns: []string{LeafNoun(t, placement[n])}, Verb: VerbHosts},
			Destination: pif.SentenceRef{Nouns: []string{fmt.Sprintf("node%d", n)}, Verb: VerbRuns},
		})
	}
	return f
}
