package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// BENCH_*.json files commit ccbench NDJSON output as performance baselines:
// one JSON object per grid cell. The cells are virtual-time throughput and
// therefore deterministic — the same code, seed and options reproduce them
// bit for bit on any host — so CI can diff a fresh run against the committed
// baseline and fail on regressions. Host-side cost is measured by the
// benchmark/ module instead (BENCHMARK.json).

// BaselineCell is one comparable measurement: a grid cell identified by
// (experiment, series, x) with its throughput y.
type BaselineCell struct {
	Experiment string  `json:"experiment"`
	Series     string  `json:"series"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	// Shards is the runtime width behind the cell. Zero (baselines
	// recorded before the sharded runtime existed) and one share a key, so
	// old BENCH_*.json files stay comparable. One covers both the plain
	// scheduler and the sharded runtime at width 1; their event tie-break
	// orders differ, so a baseline recorded on one path fails the exact
	// comparison on the other.
	Shards int `json:"shards,omitempty"`
}

// key identifies a cell across runs.
func (c BaselineCell) key() string {
	s := c.Shards
	if s == 0 {
		s = 1
	}
	return fmt.Sprintf("%s/%s/x=%g/shards=%d", c.Experiment, c.Series, c.X, s)
}

// ReadBaseline parses ccbench NDJSON, returning the grid cells and skipping
// blank lines and the "perf":true host records older artifacts carry.
func ReadBaseline(r io.Reader) ([]BaselineCell, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []BaselineCell
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			BaselineCell
			Perf bool `json:"perf"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("baseline line %d: %w", line, err)
		}
		if rec.Perf {
			continue
		}
		out = append(out, rec.BaselineCell)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SeriesCells flattens an experiment's series into comparable cells.
func SeriesCells(e Experiment, series []Series) []BaselineCell {
	var out []BaselineCell
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, BaselineCell{Experiment: e.ID, Series: s.Name, X: p.X, Y: p.Y, Shards: p.Shards})
		}
	}
	return out
}

// CompareBaseline checks fresh cells against a committed baseline exactly:
// cell throughputs are virtual-time and deterministic, so any difference —
// up or down — is a change in behaviour, and the baseline file must be
// regenerated in the same commit that makes it. A baseline cell with no
// fresh counterpart fails when its experiment was re-run (a vanished cell
// would otherwise hide a change); cells of experiments the run did not
// include are not demanded. Fresh cells absent from the baseline pass — new
// experiments extend the grid. It returns one message per violation, in
// fresh-cell order.
func CompareBaseline(baseline, fresh []BaselineCell) []string {
	base := make(map[string]BaselineCell, len(baseline))
	for _, c := range baseline {
		base[c.key()] = c
	}
	ranExp := make(map[string]bool)
	seen := make(map[string]bool)
	var bad []string
	for _, f := range fresh {
		ranExp[f.Experiment] = true
		b, ok := base[f.key()]
		if !ok {
			continue
		}
		seen[f.key()] = true
		if f.Y != b.Y {
			bad = append(bad, fmt.Sprintf("%s: %g differs from baseline %g by %+g",
				f.key(), f.Y, b.Y, f.Y-b.Y))
		}
	}
	for _, c := range baseline {
		if ranExp[c.Experiment] && !seen[c.key()] {
			bad = append(bad, fmt.Sprintf("%s: baseline cell missing from fresh run", c.key()))
		}
	}
	return bad
}
