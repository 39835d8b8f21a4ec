// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded corpus with its own generator, drives one workload
// (the flbd daemon over HTTP, or the library in process), checks every
// output against in-process runs of the facade, and prints one JSON
// result line.
//
// It is normally started through run.py, which builds flbd and this
// command first:
//
//	python3 perfbench/run.py --workload serve-faults --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced in-process
// replay, and the span file and layer table are written under --out.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flb"
)

//go:embed design.json
var designJSON []byte

// design is the part of design.json the command reads: the fixed rate of
// each serve workload and each workload's reference corpus digest.
type design struct {
	ReferenceSeed    int64 `json:"reference_seed"`
	ReferenceSeconds int   `json:"reference_seconds"`
	Workloads        []struct {
		Name   string  `json:"name"`
		Rate   float64 `json:"rate_per_s"`
		Digest string  `json:"reference_digest"`
	} `json:"workloads"`
}

func loadDesign() (*design, error) {
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return nil, fmt.Errorf("design.json: %w", err)
	}
	return &d, nil
}

func (d *design) rate(name string) float64 {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w.Rate
		}
	}
	return 0
}

func (d *design) digest(name string) string {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w.Digest
		}
	}
	return ""
}

// serveSpecs are the serve workloads' request streams.
var serveSpecs = map[string]*serveSpec{
	"serve-mixed": {
		name: "serve-mixed", minV: 200, maxV: 3000, procs: [3]int{4, 8, 16},
		skewEvery: 5, repeatEvery: 3, repeatLo: 30, repeatHi: 240,
	},
	"serve-faults": {
		name: "serve-faults", minV: 500, maxV: 2000, procs: [3]int{2, 4, 8},
		faults: true, jitter: 0.1,
	},
}

const libName = "lib-large"

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	flbd     string
	out      string
}

func main() {
	var (
		cfg   config
		secs  float64
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "serve-mixed, serve-faults or lib-large")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus seed")
	flag.Float64Var(&secs, "seconds", 40, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced replay")
	flag.StringVar(&cfg.flbd, "flbd", "", "path of the flbd binary (serve workloads)")
	flag.StringVar(&cfg.out, "out", ".", "directory for daemon logs, span files and layer tables")
	flag.Parse()
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1

	d, err := loadDesign()
	var res *result
	if err == nil {
		res, err = run(cfg, d)
	}
	if err == nil {
		err = res.print(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// referenceDigest is the digest of the workload's corpus at the
// reference seed and length recorded in design.json.
func referenceDigest(d *design, name string) string {
	if name == libName {
		return libDigest(d.ReferenceSeed)
	}
	sp := serveSpecs[name]
	return serveDigest(sp.ops(d.ReferenceSeed, opCount(d.rate(name), time.Duration(d.ReferenceSeconds)*time.Second)))
}

func opCount(rate float64, seconds time.Duration) int {
	return int(math.Round(rate * seconds.Seconds()))
}

func run(cfg config, d *design) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var res *result
	var err error
	switch {
	case cfg.workload == libName:
		res, err = runLib(cfg)
	case serveSpecs[cfg.workload] != nil:
		if cfg.flbd == "" {
			return nil, errors.New("--flbd is required for serve workloads")
		}
		res, err = runServe(cfg, serveSpecs[cfg.workload], d.rate(cfg.workload))
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if err := checkDigest(d, cfg.workload); err != nil {
		return nil, err
	}
	return res, nil
}

// checkDigest fails unless the generator still produces the bytes
// design.json records for the workload's reference corpus, so that two
// commits measured with this benchmark were fed the same inputs.
func checkDigest(d *design, name string) error {
	if got, want := referenceDigest(d, name), d.digest(name); got != want {
		return fmt.Errorf("%s: reference corpus digest %s, design.json records %s", name, got, want)
	}
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"tasks_per_s", "1/s"},
	{"ok_share", "share"},
	{"slr_mean", "ratio"},
	{"exec_slr_mean", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.parse_ms_p50", "ms"},
	{"graph.parse_mb_per_s", "MB/s"},
	{"graph.parse_allocs_per_op", "count"},
	{"graph.freeze_ms_p50", "ms"},
	{"graph.bytes_per_ve", "B"},
	{"svc.queue_ms_p50", "ms"},
	{"svc.queue_ms_p99", "ms"},
	{"svc.run_ms_p50", "ms"},
	{"svc.run_ms_p99", "ms"},
	{"svc.outside_ms_p50", "ms"},
	{"svc.resp_kb_mean", "KB"},
	{"svc.shed", "count"},
	{"memo.key_ms_p50", "ms"},
	{"memo.get_ms_p50", "ms"},
	{"memo.put_ms_p50", "ms"},
	{"memo.hit_share", "share"},
	{"core.schedule_ms_p50", "ms"},
	{"core.schedule_ms_p90", "ms"},
	{"core.place_tasks_per_s", "1/s"},
	{"core.allocs_per_op", "count"},
	{"core.repair_ms_p50", "ms"},
	{"core.repair_ms_p99", "ms"},
	{"core.repairs_per_op", "count"},
	{"sim.execute_self_ms_p50", "ms"},
	{"sim.recomputed_per_op", "count"},
	{"sim.retries_per_op", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

// setEndToEnd records the end-to-end metrics. lat holds every attempted
// operation's latency in ms, cut into windows, and tasksPerS each
// window's throughput: the latency percentiles and the throughput are
// the medians of the windows' figures.
func (r *result) setEndToEnd(setup float64, lat [][]float64, tasksPerS []float64, okShare, slr, execSLR, rssMB float64) {
	pct := func(p float64) float64 {
		ws := make([]float64, len(lat))
		for w := range lat {
			ws[w] = percentile(lat[w], p)
		}
		return median(ws)
	}
	r.values["setup_s"] = setup
	r.values["latency_p50_ms"] = pct(0.50)
	r.values["latency_p90_ms"] = pct(0.90)
	r.values["latency_p99_ms"] = pct(0.99)
	r.values["tasks_per_s"] = median(tasksPerS)
	r.values["ok_share"] = okShare
	r.values["slr_mean"] = slr
	r.values["exec_slr_mean"] = execSLR
	r.values["peak_rss_mb"] = rssMB
}

// throughput is tasks scheduled per second of summed latency; it is 0
// when no operation passed its checks, so such a run still prints its
// result with ok_share 0.
func throughput(tasks, secs float64) float64 {
	if secs == 0 {
		return 0
	}
	return tasks / secs
}

func (r *result) print(w io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// svcLayer is what the untraced serve run measured about the daemon.
type svcLayer struct {
	queue, run, outside, respKB []float64
	shed                        int64
}

// layerValues is everything the per-layer metrics are computed from.
type layerValues struct {
	spans       []span
	parseBytes  int
	parseAllocs float64 // per parse
	bytesPerVE  float64
	schedAllocs float64 // per Schedule call on a warm arena
	schedTasks  []int   // tasks of each schedule span, in order
	overhead    float64
	svc         *svcLayer // nil: no daemon in this workload
	genLagP99   float64
	totals      replayTotals
}

// setPerLayer computes the per-layer metrics from self times, writes the
// span file and the layer table, and prints the table to stderr.
func (r *result) setPerLayer(cfg config, lv *layerValues) error {
	self := selfTimes(lv.spans)
	byKind := make([][]float64, numSpanKinds)
	for i, s := range lv.spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(self[i])/1e6)
	}
	perOp := func(n, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	v := r.values
	v["graph.parse_ms_p50"] = percentile(byKind[spanParse], 0.5)
	v["graph.parse_mb_per_s"] = float64(lv.parseBytes) / 1e6 / (sum(byKind[spanParse]) / 1e3)
	v["graph.parse_allocs_per_op"] = lv.parseAllocs
	v["graph.freeze_ms_p50"] = percentile(byKind[spanFreeze], 0.5)
	v["graph.bytes_per_ve"] = lv.bytesPerVE
	sv := lv.svc
	if sv == nil {
		sv = &svcLayer{}
	}
	v["svc.queue_ms_p50"] = percentile(sv.queue, 0.5)
	v["svc.queue_ms_p99"] = percentile(sv.queue, 0.99)
	v["svc.run_ms_p50"] = percentile(sv.run, 0.5)
	v["svc.run_ms_p99"] = percentile(sv.run, 0.99)
	v["svc.outside_ms_p50"] = percentile(sv.outside, 0.5)
	v["svc.resp_kb_mean"] = mean(sv.respKB)
	v["svc.shed"] = float64(sv.shed)
	v["memo.key_ms_p50"] = percentile(byKind[spanKey], 0.5)
	v["memo.get_ms_p50"] = percentile(byKind[spanGet], 0.5)
	v["memo.put_ms_p50"] = percentile(byKind[spanPut], 0.5)
	v["memo.hit_share"] = perOp(lv.totals.hits, lv.totals.gets)
	v["core.schedule_ms_p50"] = percentile(byKind[spanSchedule], 0.5)
	v["core.schedule_ms_p90"] = percentile(byKind[spanSchedule], 0.9)
	tasks := 0
	for _, n := range lv.schedTasks {
		tasks += n
	}
	v["core.place_tasks_per_s"] = 0
	if t := sum(byKind[spanSchedule]); t > 0 {
		v["core.place_tasks_per_s"] = float64(tasks) / (t / 1e3)
	}
	v["core.allocs_per_op"] = lv.schedAllocs
	v["core.repair_ms_p50"] = percentile(byKind[spanRepair], 0.5)
	v["core.repair_ms_p99"] = percentile(byKind[spanRepair], 0.99)
	v["core.repairs_per_op"] = perOp(lv.totals.repairs, lv.totals.faultOps)
	v["sim.execute_self_ms_p50"] = percentile(byKind[spanExecute], 0.5)
	v["sim.recomputed_per_op"] = perOp(lv.totals.recomputed, lv.totals.faultOps)
	v["sim.retries_per_op"] = perOp(lv.totals.retries, lv.totals.faultOps)
	v["gen.lag_ms_p99"] = lv.genLagP99
	v["trace.overhead_share"] = lv.overhead

	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeSpans(base+"-spans.json", lv.spans); err != nil {
		return err
	}
	var tb strings.Builder
	fmt.Fprintf(&tb, "per-layer table: %s seed %d, %d spans (%s-spans.json)\n", cfg.workload, cfg.seed, len(lv.spans), filepath.Base(base))
	fmt.Fprintf(&tb, "%-26s %8s %10s %10s %10s %12s\n", "span (self time, ms)", "count", "q1", "median", "q3", "total")
	for k := spanKind(0); k < numSpanKinds; k++ {
		xs := byKind[k]
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(&tb, "%-26s %8d %10.4f %10.4f %10.4f %12.2f\n", spanNames[k], len(xs), q1, q2, q3, sum(xs))
	}
	fmt.Fprintf(&tb, "%-28s %16s %s\n", "metric", "value", "unit")
	for _, d := range perLayer {
		fmt.Fprintf(&tb, "%-28s %16.6g %s\n", d.name, v[d.name], d.unit)
	}
	fmt.Fprintf(&tb, "tracing overhead: an operation takes %+.1f%% (median) traced against untraced\n", 100*lv.overhead)
	if err := os.WriteFile(base+"-layers.txt", []byte(tb.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, tb.String())
	return nil
}

// runServe is a serve workload: flbd under an open loop at a fixed rate.
func runServe(cfg config, sp *serveSpec, rate float64) (*result, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("%s: no rate in design.json", sp.name)
	}
	ops := sp.ops(cfg.seed, opCount(rate, cfg.seconds))
	fmt.Fprintf(os.Stderr, "corpus digest %s (seed %d, %d requests at %g/s)\n", serveDigest(ops), cfg.seed, len(ops), rate)
	warm := sp.warmupOps()

	// Set up several times; the last daemon serves the timed run, over the
	// connections its warm-up opened.
	var setups []float64
	var d *daemon
	var clients []*http.Client
	for rep := 0; rep < serveSetupRepeats; rep++ {
		if d != nil {
			closeClients(clients)
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var ready time.Duration
		var err error
		d, ready, err = startDaemon(cfg.flbd, filepath.Join(cfg.out, fmt.Sprintf("flbd-%s-%d.log", sp.name, rep)))
		if err != nil {
			return nil, err
		}
		clients = newClients(runtime.NumCPU())
		t0 := time.Now()
		if err := warmUp(d.base, warm, clients); err != nil {
			d.stop()
			return nil, err
		}
		warmed := time.Since(t0)
		fmt.Fprintf(os.Stderr, "set-up %d: ready %.1f ms, warm-up %.1f ms\n", rep, ms(ready), ms(warmed))
		setups = append(setups, (ready + warmed).Seconds())
	}

	replies, lag, spools, lerr := openLoop(d.base, ops, rate, clients, cfg.out)
	defer func() {
		for _, f := range spools {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	closeClients(clients)
	m, merr := d.metrics()
	rss, rerr := peakRSSMB(fmt.Sprint(d.cmd.Process.Pid))
	if err := errors.Join(lerr, merr, rerr, d.stop()); err != nil {
		return nil, err
	}

	verdicts := checkReplies(ops, replies, runtime.NumCPU())
	lat := make([]float64, len(ops))
	execs := make([]*flb.ExecResult, len(ops))
	sv := &svcLayer{shed: m.Service.ShedQueueFull + m.Service.ShedDeadline + m.Service.Unavailable}
	ok := 0
	okTasks := make([]int, len(ops)) // 0 for a request that failed its checks
	var slr, execSLR []float64
	shown := 0
	for i, v := range verdicts {
		r := &replies[i]
		lat[i] = ms(r.done - r.due)
		sv.respKB = append(sv.respKB, v.respKB)
		execs[i] = v.exec
		if !v.ok {
			if shown < 5 {
				fmt.Fprintf(os.Stderr, "FAIL: request %d (%s): %s\n", i, ops[i].query(), v.why)
				shown++
			}
			continue
		}
		ok++
		okTasks[i] = v.tasks
		if ops[i].source < 0 {
			// Quality is averaged over distinct problems: a repeat's
			// schedule is its source's.
			slr = append(slr, v.slr)
			execSLR = append(execSLR, v.execSLR)
		}
		sv.queue = append(sv.queue, v.queueMs)
		sv.run = append(sv.run, v.runMs)
		sv.outside = append(sv.outside, ms(r.done-r.sent)-v.queueMs-v.runMs)
	}
	lagP99 := percentile(lag, 0.99)
	keptUp := lagP99 <= maxLagMs
	if !keptUp {
		fmt.Fprintf(os.Stderr, "INVALID: the generator fell behind (lag p99 %.2f ms > %g ms); the run does not measure the daemon\n", lagP99, maxLagMs)
	}
	res := &result{attempted: len(ops), failed: len(ops) - ok, correct: ok == len(ops) && keptUp, values: map[string]float64{}}
	var latW [][]float64
	var tput []float64
	for _, b := range windows(len(ops), windowSize) {
		var tasks, secs float64
		for i := b[0]; i < b[1]; i++ {
			if okTasks[i] > 0 {
				tasks += float64(okTasks[i])
				secs += lat[i] / 1e3
			}
		}
		latW = append(latW, lat[b[0]:b[1]])
		tput = append(tput, throughput(tasks, secs))
	}
	res.setEndToEnd(median(setups), latW, tput, float64(ok)/float64(len(ops)), geomean(slr), geomean(execSLR), rss)
	own, _ := peakRSSMB("self")
	fmt.Fprintf(os.Stderr, "%d/%d ok, shed %d, generator lag p99 %.3f ms, setups %v s, benchmark peak RSS %.0f MB\n", ok, len(ops), sv.shed, lagP99, setups, own)
	if !cfg.trace {
		return res, nil
	}

	// Traced run: replay the same operations in process. Pass 0 warms the
	// arenas on the first blocks and counts parse allocations, pass 1 is
	// the untraced reference and pass 2 records spans.
	a := newReplayArena()
	t0, err := replay(ops[:min(len(ops), 3*blockLen)], a, nil, true, execs)
	if err != nil {
		return nil, err
	}
	var fresh []op
	for i := range ops {
		if ops[i].source < 0 && len(fresh) < blockLen {
			fresh = append(fresh, ops[i])
		}
	}
	schedAllocs, err := scheduleAllocs(fresh, a)
	if err != nil {
		return nil, err
	}
	a.cache = newReplayArena().cache
	roots := newTracer(len(ops))
	roots.rootsOnly = true
	if _, err := replay(ops, a, roots, false, execs); err != nil {
		return nil, err
	}
	a.cache = newReplayArena().cache
	tr := newTracer(10 * len(ops))
	traced, err := replay(ops, a, tr, false, execs)
	if err != nil {
		return nil, err
	}
	bpve, err := heapBytesPerVE(len(fresh), func(i int) []byte { return fresh[i].g.body })
	if err != nil {
		return nil, err
	}
	lv := layerValues{
		spans:       tr.spans,
		parseBytes:  traced.parseBytes,
		parseAllocs: float64(t0.parseAllocs) / float64(max(t0.parses, 1)),
		bytesPerVE:  bpve,
		schedAllocs: schedAllocs,
		schedTasks:  traced.scheduledTasks,
		overhead:    overheadShare(opDurations(roots.spans), opDurations(tr.spans)),
		svc:         sv,
		genLagP99:   lagP99,
		totals:      traced,
	}
	if err := res.setPerLayer(cfg, &lv); err != nil {
		return nil, err
	}
	return res, nil
}

// windowSize is the number of requests in each window of a serve run:
// the fewest whose p99 has ten requests beyond it. CPU steal by other
// tenants of a shared machine comes in bursts shorter than a run; taking
// the median over windows keeps a burst in one window from moving the
// run's figures.
const windowSize = 1000

// windows cuts n operations into consecutive [lo, hi) windows of at least
// size operations each, or one window if n is smaller.
func windows(n, size int) [][2]int {
	k := max(1, n/size)
	out := make([][2]int, k)
	for w := range out {
		out[w] = [2]int{w * n / k, (w + 1) * n / k}
	}
	return out
}

const (
	// serveSetupRepeats is how many daemons a serve run starts and warms
	// up; setup_s is the median of their set-up times.
	serveSetupRepeats = 7
	// maxLagMs is how late (p99) the generator may hand requests to its
	// senders before a run is reported invalid instead of slow.
	maxLagMs = 20.0
)
