//go:build !race

package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-grid.ndjson from the current code")

// goldenGrid is the whole quick grid at seed 42, exactly as
// `ccbench -quick -json -experiment all -seed 42` prints it.
var goldenGrid = filepath.Join("testdata", "quick-grid.ndjson")

// TestQuickGridGolden regenerates every quick-grid cell and requires the
// NDJSON to match the committed file byte for byte. Every number in the grid
// is virtual-time and deterministic per seed, so any difference — a moved
// value, a lost cell, a new one — is a behaviour change that must be
// regenerated on purpose with -update. Skipped under -short (about 12 s on
// two cores) and under the race detector (this file's build tag).
func TestQuickGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick grid skipped under -short")
	}
	opts := QuickOpts()
	opts.Seed = 42
	var buf bytes.Buffer
	for _, e := range All() {
		if err := FormatJSON(&buf, e, e.Run(opts)); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(goldenGrid, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenGrid)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	for _, d := range diffCells(want, buf.Bytes()) {
		t.Error(d)
	}
	t.Fatalf("quick grid differs from %s (regenerate with -update if intended)", goldenGrid)
}

// diffCells compares two NDJSON grids cell by cell, naming each cell by its
// experiment, series and x (with an occurrence count for repeats). It
// reports differing, missing and extra cells; two grids that hold the same
// cells in another order yield an order complaint.
func diffCells(want, got []byte) []string {
	wk, wm := indexCells(want)
	gk, gm := indexCells(got)
	var out []string
	for _, k := range wk {
		g, ok := gm[k]
		switch {
		case !ok:
			out = append(out, "missing cell "+k)
		case g != wm[k]:
			out = append(out, fmt.Sprintf("cell %s:\n  want %s\n  got  %s", k, wm[k], g))
		}
	}
	for _, k := range gk {
		if _, ok := wm[k]; !ok {
			out = append(out, "extra cell "+k+": "+gm[k])
		}
	}
	if len(out) == 0 {
		out = append(out, "same cells, different order or framing")
	}
	return out
}

// indexCells splits an NDJSON grid into its cells, returning the cell names
// in order and a name → line map.
func indexCells(grid []byte) ([]string, map[string]string) {
	var keys []string
	lines := make(map[string]string)
	seen := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(string(grid)), "\n") {
		var c struct {
			Experiment, Series string
			X                  float64
		}
		_ = json.Unmarshal([]byte(line), &c)
		base := fmt.Sprintf("%s/%s/x=%g", c.Experiment, c.Series, c.X)
		seen[base]++
		k := fmt.Sprintf("%s#%d", base, seen[base])
		keys = append(keys, k)
		lines[k] = line
	}
	return keys, lines
}
