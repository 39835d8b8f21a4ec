package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names the call a span brackets: one operation of the workload,
// or one public function of a layer.
type spanKind uint8

const (
	spanOp       spanKind = iota // one workload operation (root span)
	spanParse                    // graph.ReadTextLimits
	spanFreeze                   // Graph.Freeze (CSR, topological order, BottomLevels)
	spanKey                      // memo.KeyOf
	spanGet                      // memo.Cache.Get
	spanPut                      // memo.Cache.Put
	spanSchedule                 // core.Scheduler.Schedule
	spanExecute                  // sim.RunFaulty
	spanRepair                   // core.Rescheduler.Repair, inside sim.RunFaulty
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op",
	"graph.ReadTextLimits",
	"graph.Freeze",
	"memo.KeyOf",
	"memo.Cache.Get",
	"memo.Cache.Put",
	"core.Scheduler.Schedule",
	"sim.RunFaulty",
	"core.Rescheduler.Repair",
}

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Parent is -1 for a root span.
type span struct {
	ID, Parent int32
	Op         int32
	Kind       spanKind
	Start, End int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay runs the same code path; a rootsOnly
// tracer records only the operation spans, which time the untraced
// reference for the tracing overhead.
type tracer struct {
	epoch     time.Time
	spans     []span
	rootsOnly bool
}

func newTracer(capHint int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capHint)}
}

// begin opens a span and returns its id, or -1 when it is not recorded.
func (t *tracer) begin(kind spanKind, parent, op int32) int32 {
	if t == nil || (t.rootsOnly && kind != spanOp) {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Kind: kind, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// opDurations lists the duration of every operation span, in ms, in
// recording order.
func opDurations(spans []span) []float64 {
	var d []float64
	for _, s := range spans {
		if s.Kind == spanOp {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	return d
}

// overheadShare is the tracing overhead: the median over operations of
// traced over untraced duration, less one. Pairing each operation with
// itself keeps a slow stretch of one pass from reading as overhead.
func overheadShare(untraced, traced []float64) float64 {
	n := min(len(untraced), len(traced))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if untraced[i] > 0 {
			ratios = append(ratios, traced[i]/untraced[i])
		}
	}
	return median(ratios) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by the union of its direct children's intervals.
// Children may overlap one another (their union counts once) and may have
// children of their own (those lie inside the child and are not
// subtracted again from the grandparent).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - coveredBy(s, spans, children[i])
	}
	return self
}

// coveredBy is the length of the union of the child intervals, clipped to
// the parent's interval.
func coveredBy(parent span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// writeSpans writes every span as one JSON array, once, at the end of the
// run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type row struct {
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Op      int32  `json:"op"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		b, err := json.Marshal(row{s.ID, s.Parent, s.Op, spanNames[s.Kind], s.Start, s.End})
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
