package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// parseProm reads the Prometheus text exposition format into a map
// from series name (labels included, exactly as written) to value.
// Comment lines are skipped; a malformed sample line is an error.
func parseProm(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; a label set may hold spaces
		// inside quotes but never after its closing brace.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// seriesSum adds up one series across several exports: the plain name
// and, when the series is labelled, every label set of it. It reports
// whether any export carried the series, so an absent one can print as
// null instead of a misleading zero.
type seriesSet []map[string]float64

func (ss seriesSet) sum(name string) (float64, bool) {
	var total float64
	found := false
	for _, m := range ss {
		if v, ok := m[name]; ok {
			total += v
			found = true
			continue // a family with an unlabelled total: do not add its parts again
		}
		for k, v := range m {
			if strings.HasPrefix(k, name+"{") {
				total += v
				found = true
			}
		}
	}
	return total, found
}

func (ss seriesSet) max(name string) (float64, bool) {
	var best float64
	found := false
	for _, m := range ss {
		if v, ok := m[name]; ok {
			if !found || v > best {
				best = v
			}
			found = true
		}
	}
	return best, found
}
