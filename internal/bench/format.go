package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Format renders an experiment's series as an aligned text table. Series
// sharing x-values become columns; otherwise each series prints its own
// block (Table 1/2 style experiments print one row per series).
func Format(w io.Writer, e Experiment, series []Series) {
	fmt.Fprintf(w, "# %s — %s [%s]\n", e.ID, e.Title, e.Ref)
	fmt.Fprintf(w, "# x: %s   y: %s\n", e.XAxis, e.YAxis)
	if oneRowPerSeries(series) {
		for _, s := range series {
			if len(s.Points) == 1 && e.ID == "table2" {
				fmt.Fprintf(w, "%-28s paper=%10.1f   ours=%10.1f\n", s.Name, s.Points[0].X, s.Points[0].Y)
			} else if len(s.Points) == 1 {
				fmt.Fprintf(w, "%-72s %12.0f\n", s.Name, s.Points[0].Y)
			}
		}
		fmt.Fprintln(w)
		return
	}
	// Column layout keyed by x. Series whose points carry latency
	// percentiles get a p99 column next to their value column.
	xs := sortedXs(series)
	fmt.Fprintf(w, "%10s", "x")
	for _, s := range series {
		fmt.Fprintf(w, "  %*s", colWidth(s.Name), s.Name)
		if seriesHasLat(s) {
			fmt.Fprintf(w, "  %8s", "p99µs")
		}
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%10.1f", x)
		for _, s := range series {
			p, ok := pointAt(s, x)
			if ok {
				fmt.Fprintf(w, "  %*.0f", colWidth(s.Name), p.Y)
			} else {
				fmt.Fprintf(w, "  %*s", colWidth(s.Name), "-")
			}
			if !seriesHasLat(s) {
				continue
			}
			if ok {
				fmt.Fprintf(w, "  %8.0f", p.P99)
			} else {
				fmt.Fprintf(w, "  %8s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// seriesHasLat reports whether any point of the series carries latency
// percentiles (model curves do not).
func seriesHasLat(s Series) bool {
	for _, p := range s.Points {
		if p.P99 > 0 {
			return true
		}
	}
	return false
}

// FormatCSV renders the series as CSV: x,series,y rows with the latency
// percentile columns alongside (zero when the point has no simulated cell
// behind it).
func FormatCSV(w io.Writer, e Experiment, series []Series) {
	fmt.Fprintf(w, "experiment,series,x,y,p50_us,p95_us,p99_us,recovery_ms,log_bytes,replay_txns,dip_ms,rows_moved,shards,barriers\n")
	for _, s := range series {
		name := strings.ReplaceAll(s.Name, ",", ";")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%g,%g,%d,%d,%g,%d,%d,%d\n", e.ID, name, p.X, p.Y, p.P50, p.P95, p.P99,
				p.RecoveryMs, p.LogBytes, p.ReplayTxns, p.DipMs, p.RowsMoved, p.Shards, p.Barriers)
		}
	}
}

// FormatJSON emits one JSON object per measured point (grid cell), newline
// delimited, so bench trajectories can be consumed without scraping the
// aligned text output. Measured cells carry their latency percentiles (in
// microseconds) next to the throughput; model-curve points omit them.
func FormatJSON(w io.Writer, e Experiment, series []Series) error {
	enc := json.NewEncoder(w)
	for _, s := range series {
		for _, p := range s.Points {
			rec := struct {
				Experiment string  `json:"experiment"`
				Title      string  `json:"title,omitempty"`
				Ref        string  `json:"ref,omitempty"`
				Series     string  `json:"series"`
				XAxis      string  `json:"x_axis,omitempty"`
				YAxis      string  `json:"y_axis,omitempty"`
				X          float64 `json:"x"`
				Y          float64 `json:"y"`
				P50        float64 `json:"p50_us,omitempty"`
				P95        float64 `json:"p95_us,omitempty"`
				P99        float64 `json:"p99_us,omitempty"`
				RecoveryMs float64 `json:"recovery_ms,omitempty"`
				LogBytes   uint64  `json:"log_bytes,omitempty"`
				ReplayTxns uint64  `json:"replay_txns,omitempty"`
				DipMs      float64 `json:"dip_ms,omitempty"`
				RowsMoved  uint64  `json:"rows_moved,omitempty"`
				Shards     int     `json:"shards,omitempty"`
				Barriers   uint64  `json:"barriers,omitempty"`
			}{e.ID, e.Title, e.Ref, s.Name, e.XAxis, e.YAxis, p.X, p.Y, p.P50, p.P95, p.P99,
				p.RecoveryMs, p.LogBytes, p.ReplayTxns, p.DipMs, p.RowsMoved, p.Shards, p.Barriers}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func colWidth(name string) int {
	if len(name) < 12 {
		return 12
	}
	return len(name)
}

func oneRowPerSeries(series []Series) bool {
	for _, s := range series {
		if len(s.Points) != 1 {
			return false
		}
	}
	// Heterogeneous single points (Table 1/2 style).
	return len(series) > 0
}

func sortedXs(series []Series) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func pointAt(s Series, x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}
