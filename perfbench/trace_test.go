package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// Root 0 [0,100] with children:
	//   1 [10,30]
	//   2 [20,50]  overlaps 1: the union [10,50] counts once
	//   3 [60,70]  with its own child 4 [62,68] (nested: not subtracted
	//              from the root again)
	//   5 [90,120] runs past the root's end: clipped to [90,100]
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 3, Start: 62, End: 68},
		{ID: 5, Parent: 0, Start: 90, End: 120},
	}
	want := []int64{
		100 - 40 - 10 - 10, // minus [10,50], [60,70], [90,100]
		20,
		30,
		10 - 6,
		6,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimesContainedAndIdenticalChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 50},
		{ID: 1, Parent: 0, Start: 5, End: 45},
		{ID: 2, Parent: 0, Start: 10, End: 20}, // inside sibling 1
		{ID: 3, Parent: 0, Start: 5, End: 45},  // same interval as sibling 1
		{ID: 4, Parent: 0, Start: 45, End: 50}, // touches sibling 1's end
	}
	got := selfTimes(spans)
	if got[0] != 5 {
		t.Errorf("root self time = %d, want 5 (50 minus the union [5,50])", got[0])
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin(spanParse, -1, 0); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	tr.end(-1) // must not panic
}

func TestOverheadShare(t *testing.T) {
	untraced := []float64{10, 20, 40, 1}
	traced := []float64{11, 22, 44, 5} // one op hit a stall: 5x
	if got := overheadShare(untraced, traced); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("overhead = %v, want 0.1 (median ratio 1.1; the stall is an outlier)", got)
	}
	tr := newTracer(4)
	tr.rootsOnly = true
	root := tr.begin(spanOp, -1, 0)
	tr.end(tr.begin(spanParse, root, 0))
	tr.end(root)
	if len(tr.spans) != 1 || len(opDurations(tr.spans)) != 1 {
		t.Fatalf("roots-only tracer recorded %d spans, want the 1 operation span", len(tr.spans))
	}
}

func TestWriteSpans(t *testing.T) {
	tr := newTracer(4)
	root := tr.begin(spanOp, -1, 7)
	id := tr.begin(spanSchedule, root, 7)
	tr.end(id)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		ID, Parent, Op int32
		Name           string
		StartNs        int64 `json:"start_ns"`
		EndNs          int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(rows) != 2 || rows[1].Name != "core.Scheduler.Schedule" || rows[1].Parent != 0 || rows[1].Op != 7 {
		t.Fatalf("span rows = %+v", rows)
	}
	if rows[0].EndNs < rows[1].EndNs || rows[1].StartNs < rows[0].StartNs {
		t.Fatalf("child span not inside its parent: %+v", rows)
	}
}
