package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"flb"
)

// scheduleReply is the part of a /schedule answer the checks read.
type scheduleReply struct {
	Tasks       int         `json:"tasks"`
	Procs       int         `json:"procs"`
	Makespan    float64     `json:"makespan"`
	QueueMs     float64     `json:"queue_ms"`
	RunMs       float64     `json:"run_ms"`
	Assignments []placement `json:"assignments"`
	Executed    *struct {
		Makespan    float64 `json:"makespan"`
		Crashes     int     `json:"crashes"`
		Reschedules int     `json:"reschedules"`
		Recomputed  int     `json:"recomputed"`
		Retries     int     `json:"retries"`
	} `json:"executed"`
}

// placement is one task's slot in a schedule.
type placement struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// expected is what in-process runs of the facade give for one op.
type expected struct {
	err      error
	tasks    int
	makespan float64
	cp       float64 // graph.CriticalPath
	exec     *flb.ExecResult
	g        *flb.Graph
	sys      flb.System
}

// systemOf is the machine an op asks for.
func systemOf(o *op) flb.System {
	if o.speeds == nil {
		return flb.NewSystem(o.procs)
	}
	return flb.NewSystem(o.procs, flb.WithSpeeds(o.speeds))
}

// faultPlan is the crash plan an op asks for.
func faultPlan(o *op) flb.FaultPlan {
	if o.crash == nil {
		return flb.FaultPlan{}
	}
	return flb.FaultPlan{Crashes: []flb.Crash{{Proc: o.crash.proc, Time: o.crash.at}}}
}

// expect runs the op in process: parse the same bytes, schedule with
// flb.Run on the same machine, and, for fault requests, flb.Execute with
// the same seed, jitter and crash.
func expect(o *op) expected {
	g, err := flb.ReadGraph(bytes.NewReader(o.g.body))
	if err != nil {
		return expected{err: fmt.Errorf("parse: %w", err)}
	}
	sys := systemOf(o)
	s, err := flb.Run(g, flb.WithSystem(sys))
	if err != nil {
		return expected{err: fmt.Errorf("flb.Run: %w", err)}
	}
	ex := expected{tasks: g.NumTasks(), makespan: s.Makespan(), cp: g.CriticalPath(), g: g, sys: sys}
	if o.crash != nil || o.jitter > 0 {
		// The daemon's deadline is far above any repair, so it always
		// repairs with a full reschedule; an undeadlined context picks
		// the same chooser here.
		r, err := flb.Execute(s, flb.WithContext(context.Background()),
			flb.WithJitter(o.jitter, o.jitter), flb.WithFaults(faultPlan(o)), flb.WithSeed(o.seed))
		if err != nil {
			return expected{err: fmt.Errorf("flb.Execute: %w", err)}
		}
		ex.exec = r
	}
	return ex
}

// verdict is the checked outcome of one request.
type verdict struct {
	ok      bool
	why     string
	tasks   int
	slr     float64
	execSLR float64
	queueMs float64
	runMs   float64
	respKB  float64
	// exec is in-process flb.Execute's result for a fault request, which
	// the traced replay must reproduce.
	exec *flb.ExecResult
}

// checkReplies verifies every reply off the timed path, on workers
// goroutines. Each fresh op is re-run in process once; its repeats are
// checked against the same expectation, since their bytes are identical.
func checkReplies(ops []op, replies []reply, workers int) []verdict {
	repeats := make([][]int, len(ops))
	for i := range ops {
		if s := ops[i].source; s >= 0 {
			repeats[s] = append(repeats[s], i)
		}
	}
	out := make([]verdict, len(ops))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ex := expect(&ops[i])
				out[i] = checkReply(&ops[i], &replies[i], &ex)
				for _, r := range repeats[i] {
					out[r] = checkReply(&ops[r], &replies[r], &ex)
				}
			}
		}()
	}
	for i := range ops {
		if ops[i].source < 0 {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return out
}

func checkReply(o *op, r *reply, ex *expected) verdict {
	v := verdict{respKB: float64(r.n) / 1024}
	fail := func(format string, args ...any) verdict {
		v.ok, v.why = false, fmt.Sprintf(format, args...)
		return v
	}
	if r.err != nil {
		return fail("transport: %v", r.err)
	}
	body, err := r.body()
	if err != nil {
		return fail("read spooled reply: %v", err)
	}
	if r.status < 200 || r.status > 299 {
		return fail("status %d: %.200s", r.status, body)
	}
	if ex.err != nil {
		return fail("in-process reference: %v", ex.err)
	}
	var rep scheduleReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fail("decode reply: %v", err)
	}
	v.queueMs, v.runMs, v.tasks = rep.QueueMs, rep.RunMs, rep.Tasks
	if rep.Tasks != ex.tasks || rep.Procs != o.procs {
		return fail("reply has %d tasks on %d procs, want %d on %d", rep.Tasks, rep.Procs, ex.tasks, o.procs)
	}
	if rep.Makespan != ex.makespan {
		return fail("makespan %v, in-process flb.Run gives %v", rep.Makespan, ex.makespan)
	}
	if err := validSchedule(ex.g, ex.sys, rep.Assignments, rep.Makespan); err != nil {
		return fail("invalid schedule: %v", err)
	}
	v.slr = rep.Makespan / ex.cp
	v.execSLR = v.slr
	if ex.exec != nil {
		v.exec = ex.exec
		e := rep.Executed
		if e == nil {
			return fail("no execution in reply")
		}
		want := ex.exec
		if e.Makespan != want.Makespan || e.Crashes != want.Crashes || e.Reschedules != want.Reschedules ||
			e.Recomputed != want.Recomputed || e.Retries != want.Retries {
			return fail("execution %+v, in-process flb.Execute gives makespan %v crashes %d reschedules %d recomputed %d retries %d",
				*e, want.Makespan, want.Crashes, want.Reschedules, want.Recomputed, want.Retries)
		}
		if e.Reschedules != e.Crashes {
			return fail("%d reschedules for %d crashes applied", e.Reschedules, e.Crashes)
		}
		v.execSLR = e.Makespan / ex.cp
	}
	v.ok = true
	return v
}

// validSchedule checks that the placements are a feasible schedule of g
// on sys with the given makespan: every task placed once on a real processor, finish = start +
// comp/speed, no overlap on a processor, every message arrived before
// its consumer starts, and the makespan is the last finish.
func validSchedule(g *flb.Graph, sys flb.System, as []placement, makespan float64) error {
	n := g.NumTasks()
	if len(as) != n {
		return fmt.Errorf("%d placements for %d tasks", len(as), n)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	proc := make([]int, n)
	start := make([]float64, n)
	finish := make([]float64, n)
	last := 0.0
	byProc := make([][]int, sys.P)
	for i, a := range as {
		if a.Task != i {
			return fmt.Errorf("assignment %d is for task %d", i, a.Task)
		}
		if a.Proc < 0 || a.Proc >= sys.P {
			return fmt.Errorf("task %d on processor %d of %d", i, a.Proc, sys.P)
		}
		speed := 1.0
		if sys.Speeds != nil {
			speed = sys.Speeds[a.Proc]
		}
		if a.Start < 0 || !near(a.Finish, a.Start+g.Comp(i)/speed) {
			return fmt.Errorf("task %d runs [%v, %v], comp %v at speed %v", i, a.Start, a.Finish, g.Comp(i), speed)
		}
		proc[i], start[i], finish[i] = a.Proc, a.Start, a.Finish
		byProc[a.Proc] = append(byProc[a.Proc], i)
		last = math.Max(last, a.Finish)
	}
	if last != makespan {
		return fmt.Errorf("makespan %v, last finish %v", makespan, last)
	}
	for p, ts := range byProc {
		sort.Slice(ts, func(a, b int) bool { return start[ts[a]] < start[ts[b]] })
		for k := 1; k < len(ts); k++ {
			if prev, t := ts[k-1], ts[k]; start[t] < finish[prev] && !near(start[t], finish[prev]) {
				return fmt.Errorf("tasks %d and %d overlap on processor %d", prev, t, p)
			}
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		arrive := finish[e.From]
		if proc[e.From] != proc[e.To] {
			arrive += e.Comm
		}
		if start[e.To] < arrive && !near(start[e.To], arrive) {
			return fmt.Errorf("task %d starts at %v before the message from %d arrives at %v", e.To, start[e.To], e.From, arrive)
		}
	}
	return nil
}
