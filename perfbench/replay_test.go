package main

import (
	"strings"
	"testing"

	"flb"
)

// The traced replay must reproduce in-process flb.Execute on every fault
// request, and a replay that drifts from it must fail.
func TestReplayMatchesExecute(t *testing.T) {
	ops := serveSpecs["serve-faults"].ops(3, 6)
	want := make([]*flb.ExecResult, len(ops))
	for i := range ops {
		ex := expect(&ops[i])
		if ex.err != nil || ex.exec == nil {
			t.Fatalf("op %d: no in-process execution: %v", i, ex.err)
		}
		want[i] = ex.exec
	}
	tot, err := replay(ops, newReplayArena(), nil, false, want)
	if err != nil {
		t.Fatal(err)
	}
	if tot.faultOps != len(ops) || tot.repairs != len(ops) {
		t.Fatalf("%d executions with %d repairs, want %d of each", tot.faultOps, tot.repairs, len(ops))
	}

	drifted := *want[len(ops)-1]
	drifted.Recomputed++
	want[len(ops)-1] = &drifted
	if _, err := replay(ops, newReplayArena(), nil, false, want); err == nil || !strings.Contains(err.Error(), "differs from flb.Execute") {
		t.Fatalf("a replay that differs from flb.Execute gave error %v", err)
	}
}
