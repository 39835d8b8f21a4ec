package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"flb"
	"flb/internal/graph"
)

// libSpecs is the library workload's corpus: large LU, stencil and
// layered-random graphs at varied CCR, scheduled on 32 processors.
var libSpecs = []libGraph{
	{sh: shapeLU, v: 100000, ccr: 0.2},
	{sh: shapeLU, v: 100000, ccr: 5},
	{sh: shapeStencil, v: 100000, width: 50, ccr: 1},
	{sh: shapeStencil, v: 100000, width: 50, ccr: 0.2},
	{sh: shapeLayered, v: 100000, width: 50, ccr: 5},
	{sh: shapeLayered, v: 100000, width: 50, ccr: 1},
}

const (
	libProcs        = 32
	libSetupRepeats = 3  // set-ups per run; setup_s is their median
	libTracedRuns   = 60 // schedule calls replayed with spans in the traced run
)

// libSetup parses and freezes the corpus and runs one untimed schedule
// pass over it: the program's whole set-up before the first timed call.
// Each graph's text is generated just before its parse, after the heap
// has been collected, and dropped after it; the returned time leaves the
// generation out.
func libSetup(seed int64, sys flb.System) ([]*flb.Graph, *flb.Scheduler, time.Duration, error) {
	gs := make([]*flb.Graph, len(libSpecs))
	var took time.Duration
	for i := range gs {
		runtime.GC()
		body := libText(seed, i).body
		t0 := time.Now()
		g, err := flb.ReadGraph(bytes.NewReader(body))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("graph %d: %w", i, err)
		}
		g.Freeze()
		took += time.Since(t0)
		gs[i] = g
	}
	runtime.GC()
	t0 := time.Now()
	sc := flb.NewScheduler()
	for i, g := range gs {
		if _, err := sc.Schedule(g, sys); err != nil {
			return nil, nil, 0, fmt.Errorf("graph %d: %w", i, err)
		}
	}
	return gs, sc, took + time.Since(t0), nil
}

// runLib is the lib-large workload: one caller in a closed loop over the
// corpus with a reused flb.Scheduler, no cache, no service.
func runLib(cfg config) (*result, error) {
	fmt.Fprintf(os.Stderr, "corpus digest %s (seed %d)\n", libDigest(cfg.seed), cfg.seed)
	sys := flb.NewSystem(libProcs)
	// This process is the one under test: return the digest pass's garbage
	// to the OS and restart the high-water mark, so that peak_rss_mb
	// covers the set-up and the timed calls, not the benchmark's input
	// generation or its checks.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}

	var setups []float64
	var gs []*flb.Graph
	var sc *flb.Scheduler
	for rep := 0; rep < libSetupRepeats; rep++ {
		gs, sc = nil, nil
		var took time.Duration
		var err error
		if gs, sc, took, err = libSetup(cfg.seed, sys); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	var m0, m1 runtime.MemStats
	lat := make([]float64, 0, 1<<14)
	mk := make([]float64, 0, 1<<14)
	calls := make([]int, 0, 1<<14)
	var failures []string
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		k := i % len(gs)
		t0 := time.Now()
		s, err := sc.Schedule(gs[k], sys)
		d := time.Since(t0)
		if err != nil {
			failures = append(failures, fmt.Sprintf("call %d: %v", i, err))
			mk = append(mk, -1)
		} else {
			mk = append(mk, s.Makespan())
		}
		lat = append(lat, ms(d))
		calls = append(calls, k)
	}
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	allocsPerCall := float64(m1.Mallocs-m0.Mallocs) / float64(len(lat))

	// Checks, off the timed path: each graph's arena schedule must be a
	// valid schedule equal to stateless flb.Run's, and every timed call
	// must have returned that makespan.
	want := make([]float64, len(gs))
	cp := make([]float64, len(gs))
	bad := make([]bool, len(gs))
	var slr []float64
	for k, g := range gs {
		ref, err := flb.Run(g, flb.WithSystem(sys))
		if err != nil {
			return nil, fmt.Errorf("graph %d: flb.Run: %w", k, err)
		}
		want[k], cp[k] = ref.Makespan(), g.CriticalPath()
		s, err := sc.Schedule(g, sys)
		if err == nil {
			err = validSchedule(g, sys, placements(s), s.Makespan())
		}
		if err == nil && s.Makespan() != want[k] {
			err = fmt.Errorf("arena makespan %v, flb.Run %v", s.Makespan(), want[k])
		}
		if err != nil {
			bad[k] = true
			failures = append(failures, fmt.Sprintf("graph %d: %v", k, err))
			continue
		}
		// Quality is averaged over distinct problems, as on the serve
		// workloads, whatever the number of calls each graph got.
		slr = append(slr, want[k]/cp[k])
	}
	ok := 0
	var tasks, secs float64
	for i, k := range calls {
		if bad[k] || mk[i] != want[k] {
			continue
		}
		ok++
		tasks += float64(gs[k].NumTasks())
		secs += lat[i] / 1e3
	}
	for _, f := range failures[:min(len(failures), 5)] {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	res := &result{attempted: len(lat), failed: len(lat) - ok, correct: ok == len(lat), values: map[string]float64{}}
	res.setEndToEnd(median(setups), [][]float64{lat}, []float64{throughput(tasks, secs)}, float64(ok)/float64(len(lat)), geomean(slr), geomean(slr), rss)
	if !cfg.trace {
		return res, nil
	}

	// Traced run: parse and freeze the corpus again, then replay the first
	// timed calls, each call inside spans.
	gs, sc = nil, nil
	tr := newTracer(4 * len(libSpecs) * (libTracedRuns + 1))
	var parseAllocs uint64
	traced := make([]*graph.Graph, len(libSpecs))
	parseBytes := 0
	for k := range traced {
		runtime.GC() // as in libSetup
		body := libText(cfg.seed, k).body
		runtime.ReadMemStats(&m0)
		root := tr.begin(spanOp, -1, int32(k))
		id := tr.begin(spanParse, root, int32(k))
		g, err := graph.ReadTextLimits(bytes.NewReader(body), graph.Limits{})
		tr.end(id)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		parseAllocs += m1.Mallocs - m0.Mallocs
		parseBytes += len(body)
		id = tr.begin(spanFreeze, root, int32(k))
		g.Freeze()
		tr.end(id)
		tr.end(root)
		traced[k] = g
	}
	runtime.GC()
	tsc := flb.NewScheduler()
	for _, g := range traced {
		if _, err := tsc.Schedule(g, sys); err != nil {
			return nil, err
		}
	}
	n := min(len(calls), libTracedRuns)
	var schedTasks []int
	firstOp := len(tr.spans)
	for i := 0; i < n; i++ {
		op := int32(len(libSpecs) + i)
		root := tr.begin(spanOp, -1, op)
		id := tr.begin(spanSchedule, root, op)
		_, err := tsc.Schedule(traced[calls[i]], sys)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		schedTasks = append(schedTasks, traced[calls[i]].NumTasks())
	}
	traced = nil
	bpve, err := heapBytesPerVE(len(libSpecs), func(i int) []byte { return libText(cfg.seed, i).body })
	if err != nil {
		return nil, err
	}
	lay := layerValues{
		spans:       tr.spans,
		parseBytes:  parseBytes,
		parseAllocs: float64(parseAllocs) / float64(len(libSpecs)),
		bytesPerVE:  bpve,
		schedAllocs: allocsPerCall,
		schedTasks:  schedTasks,
		overhead:    overheadShare(lat[:n], opDurations(tr.spans[firstOp:])),
	}
	if err := res.setPerLayer(cfg, &lay); err != nil {
		return nil, err
	}
	return res, nil
}

// placements lists a schedule's task slots.
func placements(s *flb.Schedule) []placement {
	as := make([]placement, s.Graph().NumTasks())
	for t := range as {
		as[t] = placement{Task: t, Proc: s.Proc(t), Start: s.Start(t), Finish: s.Finish(t)}
	}
	return as
}
