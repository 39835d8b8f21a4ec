package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"flb"
	"flb/internal/graph"
)

func TestGeneratedGraphsParse(t *testing.T) {
	for sh := shape(0); sh < numShapes; sh++ {
		for _, v := range []int{200, 1000, 3000} {
			for _, ccr := range []float64{0.2, 5} {
				gt := genGraph(stream(7, "test", int(sh), v), sh, v, 0, ccr)
				// ReadText validates: dense ids, known endpoints, no
				// duplicate edge, no cycle.
				g, err := graph.ReadText(bytes.NewReader(gt.body))
				if err != nil {
					t.Fatalf("%s V=%d: %v", shapeNames[sh], v, err)
				}
				if g.NumTasks() != gt.v || g.NumEdges() != gt.e {
					t.Fatalf("%s V=%d: parsed %d tasks %d edges, generator counted %d %d",
						shapeNames[sh], v, g.NumTasks(), g.NumEdges(), gt.v, gt.e)
				}
				lo, hi := 0.75*float64(v), 1.25*float64(v)
				if sh == shapeFFT { // powers of two: the largest one that fits
					lo, hi = float64(v)/2.5, float64(v)
				}
				if float64(gt.v) < lo || float64(gt.v) > hi {
					t.Errorf("%s: %d tasks for target %d", shapeNames[sh], gt.v, v)
				}
				if math.Abs(g.TotalComp()-gt.totalComp) > 1e-6*gt.totalComp {
					t.Errorf("%s V=%d: total comp %v, generator counted %v", shapeNames[sh], v, g.TotalComp(), gt.totalComp)
				}
			}
		}
	}
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	sp := serveSpecs["serve-mixed"]
	a, b := serveDigest(sp.ops(5, 300)), serveDigest(sp.ops(5, 300))
	if a != b {
		t.Fatalf("same seed, different digests %s and %s", a, b)
	}
	if c := serveDigest(sp.ops(6, 300)); c == a {
		t.Fatal("seeds 5 and 6 gave the same corpus")
	}
	// A longer run extends the corpus: its first requests are unchanged.
	long := sp.ops(5, 400)
	if serveDigest(long[:300]) != a {
		t.Fatal("the first 300 requests depend on the run length")
	}
}

func TestRepeatsCopyEarlierRequests(t *testing.T) {
	sp := serveSpecs["serve-mixed"]
	ops := sp.ops(3, 900)
	repeats := 0
	last := map[int]int{} // fresh request -> latest request with its bytes
	for i, o := range ops {
		if o.source < 0 {
			last[i] = i
			continue
		}
		repeats++
		src := &ops[o.source]
		if src.source >= 0 {
			t.Fatalf("request %d repeats %d, itself a repeat", i, o.source)
		}
		// The bytes first went out at least repeatLo requests earlier, so
		// that reply is in the cache, and last went out at most repeatHi
		// earlier, so it is still in the LRU.
		if d := i - o.source; d < sp.repeatLo {
			t.Fatalf("request %d repeats bytes first sent only %d places back", i, d)
		}
		if d := i - last[o.source]; d > sp.repeatHi {
			t.Fatalf("request %d repeats bytes last sent %d places back", i, d)
		}
		last[o.source] = i
		if !bytes.Equal(src.g.body, o.g.body) || src.query() != o.query() {
			t.Fatalf("request %d is not a byte-exact repeat of %d", i, o.source)
		}
	}
	if want := (900 - sp.repeatHi) / sp.repeatEvery; repeats < want-1 || repeats > want+1 {
		t.Fatalf("%d repeats in 900 requests, want about %d", repeats, want)
	}
}

func TestEveryBlockHasTheSameMix(t *testing.T) {
	sp := serveSpecs["serve-mixed"]
	for _, seed := range []int64{1, 2} {
		procs := map[int]int{}
		skewed := 0
		for k := 0; k < blockLen; k++ {
			o := sp.freshOp(seed, blockLen+k)
			procs[o.procs]++
			if o.speeds != nil {
				skewed++
			}
			if o.g.v < sp.minV/3 || o.g.v > sp.maxV*5/4 {
				t.Errorf("seed %d op %d: %d tasks outside [%d, %d]", seed, k, o.g.v, sp.minV, sp.maxV)
			}
		}
		for _, p := range sp.procs {
			if procs[p] != blockLen/len(sp.procs) {
				t.Errorf("seed %d: %d requests on %d processors in a block, want %d", seed, procs[p], p, blockLen/len(sp.procs))
			}
		}
		if skewed != blockLen/sp.skewEvery {
			t.Errorf("seed %d: %d skewed requests in a block, want %d", seed, skewed, blockLen/sp.skewEvery)
		}
	}
}

func TestFaultRequestsCrashInsideTheRun(t *testing.T) {
	sp := serveSpecs["serve-faults"]
	seeds := map[int64]bool{}
	for _, o := range sp.ops(4, 60) {
		if o.crash == nil || o.jitter != sp.jitter || o.seed == 0 || o.source >= 0 {
			t.Fatalf("fault request %s lacks a crash, jitter or seed", o.query())
		}
		if seeds[o.seed] {
			t.Fatalf("seed %d repeats, so a cache lookup could hit", o.seed)
		}
		seeds[o.seed] = true
		g, err := flb.ReadGraph(bytes.NewReader(o.g.body))
		if err != nil {
			t.Fatal(err)
		}
		s, err := flb.Run(g, flb.WithSystem(systemOf(&o)))
		if err != nil {
			t.Fatal(err)
		}
		if o.crash.at >= s.Makespan() {
			t.Fatalf("crash at %v after the makespan %v", o.crash.at, s.Makespan())
		}
	}
}

func TestDigestCheck(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"serve-mixed", "serve-faults", libName}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		if err := checkDigest(d, name); err != nil {
			t.Fatalf("recorded digest does not match the generator: %v", err)
		}
	}
	// A corpus that drifts from the record fails the run.
	for i := range d.Workloads {
		if d.Workloads[i].Name == "serve-faults" {
			d.Workloads[i].Digest = strings.Repeat("0", 64)
		}
	}
	if err := checkDigest(d, "serve-faults"); err == nil {
		t.Fatal("a digest mismatch passed the check")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command reports %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if w.Name != libName && (serveSpecs[w.Name] == nil || d.rate(w.Name) <= 0) {
			t.Errorf("workload %s has no request stream or rate", w.Name)
		}
		if d.digest(w.Name) == "" {
			t.Errorf("workload %s has no recorded digest", w.Name)
		}
	}
}

func TestValidSchedule(t *testing.T) {
	// 0 -> 1 (comm 2), 0 -> 2 (comm 3), on two processors.
	g, err := flb.ParseGraph("graph t\ntask 0 1\ntask 1 2\ntask 2 2\nedge 0 1 2\nedge 0 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	sys := flb.NewSystem(2)
	good := []placement{{0, 0, 0, 1}, {1, 0, 1, 3}, {2, 1, 4, 6}}
	if err := validSchedule(g, sys, good, 6); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := map[string]struct {
		as       []placement
		makespan float64
	}{
		"message not arrived": {[]placement{{0, 0, 0, 1}, {1, 0, 1, 3}, {2, 1, 3, 5}}, 5},
		"overlap":             {[]placement{{0, 0, 0, 1}, {1, 0, 1, 3}, {2, 0, 2, 4}}, 4},
		"wrong finish":        {[]placement{{0, 0, 0, 1}, {1, 0, 1, 2}, {2, 1, 4, 6}}, 6},
		"wrong makespan":      {good, 7},
		"missing task":        {good[:2], 6},
		"bad processor":       {[]placement{{0, 0, 0, 1}, {1, 0, 1, 3}, {2, 2, 4, 6}}, 6},
	}
	for name, c := range bad {
		if err := validSchedule(g, sys, c.as, c.makespan); err == nil {
			t.Errorf("%s: invalid schedule accepted", name)
		}
	}
	// On a related machine a task takes comp/speed.
	fast := flb.NewSystem(2, flb.WithSpeeds([]float64{2, 1}))
	if err := validSchedule(g, fast, []placement{{0, 0, 0, 0.5}, {1, 0, 0.5, 1.5}, {2, 1, 3.5, 5.5}}, 5.5); err != nil {
		t.Fatalf("valid related-machine schedule rejected: %v", err)
	}
}
