package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// A run in which every reply fails its checks still prints a result line,
// with ok_share 0 and correct false, rather than no result at all.
func TestEveryReplyFailedStillPrints(t *testing.T) {
	lat := []float64{3, 1, 2}
	var tasks, secs float64 // no reply passed, so nothing was summed
	res := &result{attempted: len(lat), failed: len(lat), correct: false, values: map[string]float64{}}
	res.setEndToEnd(0.5, [][]float64{lat}, []float64{throughput(tasks, secs)}, 0, geomean(nil), geomean(nil), 12)
	var out bytes.Buffer
	if err := res.print(&out, false); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("%v: %s", err, out.Bytes())
	}
	if line.Correct || line.Attempted != 3 || line.Failed != 3 {
		t.Fatalf("got %s", out.Bytes())
	}
	for _, name := range []string{"ok_share", "tasks_per_s", "slr_mean", "exec_slr_mean"} {
		if v := line.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if v := line.Metrics["latency_p50_ms"].Value; v != 2 {
		t.Errorf("latency_p50_ms = %v, want 2", v)
	}
}

// Serve figures are medians over windows: a burst confined to one window
// does not move them.
func TestWindowedFigures(t *testing.T) {
	for _, c := range []struct{ n, size, k, first int }{
		{5000, 1000, 5, 1000}, {2500, 1000, 2, 1250}, {4999, 1000, 4, 1249}, {300, 1000, 1, 300},
	} {
		ws := windows(c.n, c.size)
		if len(ws) != c.k || ws[0] != [2]int{0, c.first} || ws[len(ws)-1][1] != c.n {
			t.Fatalf("windows(%d, %d) = %v", c.n, c.size, ws)
		}
		for w := 1; w < len(ws); w++ {
			if ws[w][0] != ws[w-1][1] || ws[w][1]-ws[w][0] < c.size {
				t.Fatalf("windows(%d, %d) = %v", c.n, c.size, ws)
			}
		}
	}

	lat := make([][]float64, 3)
	for w := range lat {
		for i := 1; i <= 100; i++ {
			lat[w] = append(lat[w], float64(i))
		}
	}
	for i := range lat[1] {
		lat[1][i] *= 50 // a burst of steal
	}
	res := &result{values: map[string]float64{}}
	res.setEndToEnd(1, lat, []float64{10, 1, 12}, 1, 1, 1, 1)
	for name, want := range map[string]float64{"latency_p50_ms": 50, "latency_p90_ms": 90, "latency_p99_ms": 99, "tasks_per_s": 10} {
		if got := res.values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
