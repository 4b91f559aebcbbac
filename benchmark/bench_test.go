package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// driver re-executes os.Executable() for its child processes, which under
// `go test` is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.1, 1.4}, {0.9, 4.6}, {-1, 1}, {2, 5},
	} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(v, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	if got := quantile([]float64{7}, 0.1); got != 7 {
		t.Errorf("single value: got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
}

// TestFastEdgeIgnoresAddedTime is the estimator's reason for being: noise
// that only adds time to some samples must not move the reported value.
func TestFastEdgeIgnoresAddedTime(t *testing.T) {
	clean := make([]float64, 1000)
	noisy := make([]float64, 1000)
	for i := range clean {
		clean[i] = 100 + float64(i%10) // the work itself varies a little
		noisy[i] = clean[i]
		if i%3 != 0 { // two thirds of the samples are disturbed
			noisy[i] += float64(50 + i%400)
		}
	}
	a, b := summarize(clean), summarize(noisy)
	if a.Fast != b.Fast {
		t.Errorf("fast edge moved under additive noise: %v -> %v", a.Fast, b.Fast)
	}
	if b.Median <= a.Median*1.2 {
		t.Errorf("median should have moved: %v -> %v", a.Median, b.Median)
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// Minimal protobuf writer for the synthetic profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *pb) uintField(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }
func (b *pb) bytesField(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

// syntheticProfile encodes stacks (innermost frame first) as a gzipped pprof
// profile. Each location holds one function, except that frames joined by
// "<" share a location as inlined calls (innermost first).
func syntheticProfile(stacks [][]string, counts []int64) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fnID := map[string]uint64{}
	var out, fns, locs pb
	nextLoc := uint64(1)
	for i, st := range stacks {
		var sample, ids pb
		for _, frame := range st {
			var loc pb
			loc.uintField(1, nextLoc)
			for _, fn := range regexp.MustCompile("<").Split(frame, -1) {
				if _, ok := fnID[fn]; !ok {
					fnID[fn] = uint64(len(fnID) + 1)
					var f pb
					f.uintField(1, fnID[fn])
					f.uintField(2, intern(fn))
					fns.bytesField(5, f.Bytes())
				}
				var line pb
				line.uintField(1, fnID[fn])
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			ids.varint(nextLoc)
			nextLoc++
		}
		var vals pb
		vals.varint(uint64(counts[i]))
		vals.varint(uint64(counts[i]) * 10_000_000)
		sample.bytesField(1, ids.Bytes()) // packed location ids
		sample.bytesField(2, vals.Bytes())
		out.bytesField(2, sample.Bytes())
	}
	out.Write(locs.Bytes())
	out.Write(fns.Bytes())
	for _, s := range strs {
		out.bytesField(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(out.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	stacks := [][]string{
		// runtime leaf under storage under kvstore: storage asked for the map work.
		{"runtime.mapaccess2_faststr", "specdb/internal/storage.(*HashTable).Get", "specdb/internal/kvstore.Proc.Run", "specdb/internal/partition.(*Partition).Execute", "specdb.(*DB).RunFor", "main.runChild"},
		// generic btree method inlined into its caller's location.
		{"cmpbody", "specdb/internal/btree.(*node[go.shape.interface {}]).childIndex<specdb/internal/btree.(*Tree[go.shape.interface {}]).Get", "specdb/internal/storage.(*BTreeTable).Get"},
		// msg is not a layer: its time belongs to the caller.
		{"specdb/internal/msg.MakeTxnID", "specdb/internal/client.(*Client).issue", "specdb/internal/sim.(*Scheduler).deliver"},
		// facade frame is the innermost.
		{"runtime.mallocgc", "specdb.(*DB).snapshot", "main.runChild"},
		// background collector.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
		// scheduler park/wake and the harness.
		{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"},
		{"main.xorshift", "main.calibrate", "main.runChild", "runtime.main"},
	}
	counts := []int64{40, 20, 10, 5, 15, 7, 3}
	samples, err := parseProfile(syntheticProfile(stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[1].frames; len(got) != 4 || got[1] != "specdb/internal/btree.(*node[go.shape.interface {}]).childIndex" {
		t.Fatalf("inlined frames not expanded innermost first: %q", got)
	}
	shares, total := layerShares(samples)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	want := map[string]float64{
		"storage": 0.40, "btree": 0.20, "client": 0.10, "specdb": 0.05,
		layerRuntime: 0.15, layerOther: 0.10,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", layer, share, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuLayers)+2 {
		t.Errorf("%d shares reported, want every layer plus %s and %s", len(shares), layerRuntime, layerOther)
	}
}

func TestCheckDistinct(t *testing.T) {
	prints := map[string]fingerprint{"a": {1, 2, 3}, "b": {1, 2, 4}}
	if err := checkDistinct(prints); err != nil {
		t.Errorf("distinct workloads rejected: %v", err)
	}
	prints["c"] = fingerprint{1, 2, 3}
	if err := checkDistinct(prints); err == nil {
		t.Error("two workloads with the same fingerprint were accepted")
	}
}

// TestManifest holds BENCHMARK.json equal to the tables in this package and
// inside the limits the driver enforces.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	m := buildManifest()
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from the benchmark's tables; regenerate it with `benchmark manifest`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("bad name or unit: %q %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads: outside the limits", len(m.EndToEnd), len(m.PerLayer), len(m.Workloads))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range m.PerLayer {
		check(p.Name, p.Unit)
	}
	for _, w := range m.Workloads {
		check(w.Name, "count")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if total := m.RunSeconds; total < 1 || total > 60 {
		t.Errorf("run_seconds %d outside 1..60", total)
	}
}

// TestSmoke runs all four workloads in quick mode, end to end and traced, and
// checks that every declared metric is emitted exactly once, that the checks
// pass, and that no two workloads report the same fingerprint.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	prints := map[string]fingerprint{}
	costs := map[string]float64{}
	for _, u := range unitCosts {
		for _, d := range u.defs() {
			costs[d.Name] = 1 // the unit-cost suite has its own test
		}
	}
	for _, w := range workloads {
		b := budget{workload: w, seed: 7, seconds: defaultSeconds / 20.0}
		r, err := measureEndToEnd(b)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(r.failures) > 0 {
			t.Errorf("%s: %v", w.name, r.failures)
		}
		requireMetrics(t, w.name, r, endToEnd)
		for _, m := range r.metrics {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.def.Name, m.value)
			}
		}
		prints[w.name] = r.fingerprint

		tr, err := measureLayers(b, func() (map[string]float64, error) { return costs, nil })
		if err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		if len(tr.failures) > 0 {
			t.Errorf("%s trace: %v", w.name, tr.failures)
		}
		requireMetrics(t, w.name+" trace", tr, perLayer())
		sum := 0.0
		for _, m := range tr.metrics {
			if len(m.def.Name) > 10 && m.def.Name[len(m.def.Name)-10:] == ".cpu_share" {
				sum += m.value
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v, want 1", w.name, sum)
		}
	}
	if err := checkDistinct(prints); err != nil {
		t.Error(err)
	}
}

func requireMetrics(t *testing.T, what string, r *report, defs []metricDef) {
	t.Helper()
	got := map[string]int{}
	for _, m := range r.metrics {
		got[m.def.Name]++
	}
	for _, d := range defs {
		if got[d.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", what, d.Name, got[d.Name])
		}
	}
	if len(r.metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(r.metrics), len(defs))
	}
}

// TestUnitCosts runs the unit-cost suite once: every cost must be measured
// and positive, and the allocation-free paths must stay allocation-free.
func TestUnitCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("takes a few seconds")
	}
	costs := runUnitCosts()
	for _, u := range unitCosts {
		if v := costs[u.metric]; !(v > 0) {
			t.Errorf("%s = %v, want a positive cost", u.metric, v)
		}
	}
	for _, name := range []string{"sim.push_pop_allocs", "workload.next_allocs"} {
		if v, ok := costs[name]; !ok || v > 0.01 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}
