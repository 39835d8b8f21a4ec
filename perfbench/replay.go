package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"flb"
	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/memo"
	"flb/internal/schedule"
	"flb/internal/sim"
)

// The traced run replays a serve workload's operations in process, one
// layer call at a time, the way the daemon's worker makes them: parse,
// freeze, fingerprint, cache lookup, schedule and insert on a miss, and
// the faulty execution. Spans bracket each call from the outside; the
// program itself is not instrumented.

// daemonBaseSeed is the -seed flbd runs with: the scheduling seed of a
// request that carries none.
const daemonBaseSeed = 1

// replayTotals are the counts a replay pass gathers.
type replayTotals struct {
	gets, hits     int
	faultOps       int
	repairs        int
	recomputed     int
	retries        int
	parseAllocs    uint64 // heap allocations inside the parses (counted passes only)
	parses         int
	parseBytes     int
	scheduledTasks []int // tasks of each scheduled graph, in schedule-span order
}

// tracedRepairer brackets each core.Rescheduler.Repair call with a span.
type tracedRepairer struct {
	re         *core.Rescheduler
	tr         *tracer
	parent, op int32
}

func (t *tracedRepairer) Repair(req *fault.Request) error {
	id := t.tr.begin(spanRepair, t.parent, t.op)
	err := t.re.Repair(req)
	t.tr.end(id)
	return err
}

// jitter builds the execution jitter stream the facade derives from a seed.
func jitter(seed int64, stream uint64, eps float64) sim.Perturb {
	if eps == 0 {
		return nil
	}
	return sim.UniformJitter(rand.New(rand.NewSource(sim.DeriveSeed(seed, stream))), eps)
}

// replayArena is the per-replay state a daemon worker would own.
type replayArena struct {
	sc    *core.Scheduler
	re    *core.Rescheduler
	cache *memo.Cache
}

func newReplayArena() *replayArena {
	return &replayArena{sc: core.NewScheduler(core.FLB{}), re: core.NewRescheduler(), cache: memo.NewCache(512)}
}

// replay runs every op once. A nil tracer records no spans; countAllocs
// reads the heap counters around each parse. want holds in-process
// flb.Execute's result for each fault op (nil where there is none): a
// replayed execution that differs from it is an error, since the
// replay's counts and spans would then describe another execution than
// the one the daemon ran.
func replay(ops []op, a *replayArena, tr *tracer, countAllocs bool, want []*flb.ExecResult) (replayTotals, error) {
	var t replayTotals
	var m0, m1 runtime.MemStats
	for i := range ops {
		o := &ops[i]
		op := int32(i)
		root := tr.begin(spanOp, -1, op)

		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		id := tr.begin(spanParse, root, op)
		g, err := graph.ReadTextLimits(bytes.NewReader(o.g.body), graph.Limits{})
		tr.end(id)
		if countAllocs {
			runtime.ReadMemStats(&m1)
			t.parseAllocs += m1.Mallocs - m0.Mallocs
		}
		if err != nil {
			return t, fmt.Errorf("op %d: parse: %w", i, err)
		}
		t.parses++
		t.parseBytes += len(o.g.body)

		id = tr.begin(spanFreeze, root, op)
		g.Freeze()
		tr.end(id)

		sys := systemOf(o)
		seed := o.seed
		if seed == 0 {
			seed = daemonBaseSeed
		}
		id = tr.begin(spanKey, root, op)
		key := memo.KeyOf(g, sys, "flb", seed)
		tr.end(id)
		id = tr.begin(spanGet, root, op)
		s, hit := a.cache.Get(g, sys, key, false)
		tr.end(id)
		t.gets++
		if hit {
			t.hits++
		} else {
			id = tr.begin(spanSchedule, root, op)
			s, err = a.sc.Schedule(g, sys)
			tr.end(id)
			if err != nil {
				return t, fmt.Errorf("op %d: schedule: %w", i, err)
			}
			t.scheduledTasks = append(t.scheduledTasks, g.NumTasks())
			id = tr.begin(spanPut, root, op)
			a.cache.Put(g, sys, key, s)
			tr.end(id)
		}

		if o.crash != nil || o.jitter > 0 {
			if err := t.execute(o, s, a, tr, root, op, want[i]); err != nil {
				return t, fmt.Errorf("op %d: %w", i, err)
			}
		}
		tr.end(root)
	}
	return t, nil
}

func (t *replayTotals) execute(o *op, s *schedule.Schedule, a *replayArena, tr *tracer, root, op int32, want *flb.ExecResult) error {
	rp := &tracedRepairer{re: a.re, tr: tr, op: op}
	choose := func(fault.Crash, int) (fault.Repairer, error) { return rp, nil }
	id := tr.begin(spanExecute, root, op)
	rp.parent = id
	res, err := sim.RunFaulty(s, faultPlan(o), jitter(o.seed, sim.StreamComp, o.jitter), jitter(o.seed, sim.StreamComm, o.jitter),
		sim.DeriveSeed(o.seed, sim.StreamLoss), choose)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	if want != nil && (res.Makespan != want.Makespan || res.Reschedules != want.Reschedules ||
		res.Recomputed != want.Recomputed || res.Retries != want.Retries) {
		return fmt.Errorf("replayed execution (makespan %v, reschedules %d, recomputed %d, retries %d) differs from flb.Execute's (%v, %d, %d, %d)",
			res.Makespan, res.Reschedules, res.Recomputed, res.Retries, want.Makespan, want.Reschedules, want.Recomputed, want.Retries)
	}
	t.faultOps++
	t.repairs += res.Reschedules
	t.recomputed += res.Recomputed
	t.retries += res.Retries
	return nil
}

// scheduleAllocs is the mean heap allocation count of one
// core.Scheduler.Schedule call on a warm arena, over the fresh ops in
// sample.
func scheduleAllocs(sample []op, a *replayArena) (float64, error) {
	var m0, m1 runtime.MemStats
	var allocs uint64
	n := 0
	for i := range sample {
		o := &sample[i]
		g, err := graph.ReadTextLimits(bytes.NewReader(o.g.body), graph.Limits{})
		if err != nil {
			return 0, err
		}
		g.Freeze()
		sys := systemOf(o)
		runtime.ReadMemStats(&m0)
		_, err = a.sc.Schedule(g, sys)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, err
		}
		allocs += m1.Mallocs - m0.Mallocs
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return float64(allocs) / float64(n), nil
}

// heapBytesPerVE parses and freezes n bodies and returns the live heap
// the frozen graphs hold per task plus edge. body(i) gives the i-th text.
func heapBytesPerVE(n int, body func(i int) []byte) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gs := make([]*graph.Graph, 0, n)
	ve := 0
	for i := 0; i < n; i++ {
		g, err := graph.ReadTextLimits(bytes.NewReader(body(i)), graph.Limits{})
		if err != nil {
			return 0, err
		}
		g.Freeze()
		gs = append(gs, g)
		ve += g.NumTasks() + g.NumEdges()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(gs)
	if ve == 0 {
		return 0, nil
	}
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(ve), nil
}
