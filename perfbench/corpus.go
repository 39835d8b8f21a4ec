package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"
	"strings"
)

// The corpus generator is the benchmark's own: it does not call
// internal/workload, so changes to the repository's generators cannot
// change what is measured. Every operation is a pure function of
// (workload, seed, index), drawn from splitmix64 streams, and written in
// the text wire format by hand.

// splitmix is a splitmix64 stream.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform number in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stream derives an independent stream from a seed and a label path.
func stream(seed int64, labels ...any) *splitmix {
	h := sha256.New()
	fmt.Fprintf(h, "%d", seed)
	for _, l := range labels {
		fmt.Fprintf(h, "/%v", l)
	}
	sum := h.Sum(nil)
	var s uint64
	for _, b := range sum[:8] {
		s = s<<8 | uint64(b)
	}
	return &splitmix{s: s}
}

// Graph shapes of the corpus.
type shape int

const (
	shapeLU shape = iota
	shapeLaplace
	shapeStencil
	shapeFFT
	shapeLayered
	numShapes
)

var shapeNames = [numShapes]string{"lu", "laplace", "stencil", "fft", "layered"}

// Weights are written in hundredths so the bytes stay short and parse
// exactly: computation costs are uniform on [1, 19] (mean 10) and
// communication costs uniform on [0, 20·ccr] (mean 10·ccr).
func appendCenti(b []byte, k int) []byte {
	b = strconv.AppendInt(b, int64(k/100), 10)
	b = append(b, '.')
	if r := k % 100; r < 10 {
		b = append(b, '0', byte('0'+r))
	} else {
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return b
}

// graphText is one generated graph in the text wire format.
type graphText struct {
	body      []byte
	v, e      int
	totalComp float64
}

// textWriter appends a graph's lines; tasks first, then edges.
type textWriter struct {
	r      *splitmix
	b      []byte
	v, e   int
	comp   int // sum of computation costs, in hundredths
	commHi int // communication costs are uniform on [0, commHi] hundredths
}

func newTextWriter(r *splitmix, name string, v int, ccr float64) *textWriter {
	w := &textWriter{r: r, b: make([]byte, 0, 40*v), commHi: int(math.Round(2000 * ccr))}
	w.b = append(w.b, "graph "...)
	w.b = append(w.b, name...)
	w.b = append(w.b, '\n')
	for i := 0; i < v; i++ {
		k := 100 + r.intn(1801)
		w.comp += k
		w.b = append(w.b, "task "...)
		w.b = strconv.AppendInt(w.b, int64(i), 10)
		w.b = append(w.b, ' ')
		w.b = appendCenti(w.b, k)
		w.b = append(w.b, '\n')
	}
	w.v = v
	return w
}

func (w *textWriter) edge(from, to int) {
	w.b = append(w.b, "edge "...)
	w.b = strconv.AppendInt(w.b, int64(from), 10)
	w.b = append(w.b, ' ')
	w.b = strconv.AppendInt(w.b, int64(to), 10)
	w.b = append(w.b, ' ')
	w.b = appendCenti(w.b, w.r.intn(w.commHi+1))
	w.b = append(w.b, '\n')
	w.e++
}

func (w *textWriter) done() graphText {
	return graphText{body: w.b, v: w.v, e: w.e, totalComp: float64(w.comp) / 100}
}

// genGraph writes a graph of the given shape with about targetV tasks.
// Every edge runs from a lower to a higher task id, so every graph is
// acyclic, and no edge repeats. width, where the shape has one, is the
// layer width; 0 derives it from targetV.
func genGraph(r *splitmix, sh shape, targetV, width int, ccr float64) graphText {
	name := fmt.Sprintf("%s-%d", shapeNames[sh], targetV)
	switch sh {
	case shapeLU:
		// Step k holds the pivot and the updates of columns k+1..n-1.
		n := int(math.Round((-1 + math.Sqrt(1+8*float64(targetV))) / 2))
		if n < 2 {
			n = 2
		}
		start := func(k int) int { return k*n - k*(k-1)/2 }
		w := newTextWriter(r, name, n*(n+1)/2, ccr)
		for k := 0; k < n; k++ {
			diag := start(k)
			for j := k + 1; j < n; j++ {
				upd := diag + (j - k)
				w.edge(diag, upd)
				w.edge(upd, start(k+1)+(j-k-1))
			}
		}
		return w.done()
	case shapeLaplace:
		n := int(math.Round(math.Sqrt(float64(targetV))))
		if n < 2 {
			n = 2
		}
		w := newTextWriter(r, name, n*n, ccr)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i+1 < n {
					w.edge(i*n+j, (i+1)*n+j)
				}
				if j+1 < n {
					w.edge(i*n+j, i*n+j+1)
				}
			}
		}
		return w.done()
	case shapeStencil:
		if width == 0 {
			width = clamp(int(math.Round(math.Sqrt(float64(targetV)/2))), 8, 40)
		}
		steps := int(math.Round(float64(targetV) / float64(width)))
		if steps < 2 {
			steps = 2
		}
		w := newTextWriter(r, name, width*steps, ccr)
		for s := 1; s < steps; s++ {
			for x := 0; x < width; x++ {
				for dx := -1; dx <= 1; dx++ {
					if nx := x + dx; nx >= 0 && nx < width {
						w.edge((s-1)*width+nx, s*width+x)
					}
				}
			}
		}
		return w.done()
	case shapeFFT:
		// The largest power of two whose butterfly has at most targetV
		// tasks, so no FFT exceeds the workload's size range.
		n, m := 2, 1
		for (n*2)*(m+2) <= targetV {
			n, m = n*2, m+1
		}
		w := newTextWriter(r, name, n*(m+1), ccr)
		for l := 0; l < m; l++ {
			span := n >> (l + 1)
			for i := 0; i < n; i++ {
				w.edge(l*n+i, (l+1)*n+i)
				w.edge(l*n+(i^span), (l+1)*n+i)
			}
		}
		return w.done()
	default: // shapeLayered
		if width == 0 {
			width = clamp(int(math.Round(math.Sqrt(float64(targetV)))), 8, 48)
		}
		layers := int(math.Round(float64(targetV) / float64(width)))
		if layers < 2 {
			layers = 2
		}
		w := newTextWriter(r, name, width*layers, ccr)
		var picked [4]int
		for l := 1; l < layers; l++ {
			for i := 0; i < width; i++ {
				d := 1 + r.intn(min(4, width))
				for k := 0; k < d; k++ {
				draw:
					for {
						j := r.intn(width)
						for _, q := range picked[:k] {
							if q == j {
								continue draw
							}
						}
						picked[k] = j
						break
					}
					w.edge((l-1)*width+picked[k], l*width+i)
				}
			}
		}
		return w.done()
	}
}

func clamp(x, lo, hi int) int { return max(lo, min(x, hi)) }

// crash is one fail-stop processor crash of a fault request.
type crash struct {
	proc int
	at   float64
}

// op is one request of a serve workload.
type op struct {
	g      graphText
	procs  int
	speeds []float64 // nil: homogeneous
	crash  *crash
	jitter float64
	seed   int64 // explicit scheduling and execution seed; 0 = server default
	source int   // index of the op this one repeats byte for byte, or -1
}

// query is the op's URL query string; it is part of the bytes fed. Every
// request asks for the full schedule, so that its validity is checked.
func (o *op) query() string {
	var q strings.Builder
	fmt.Fprintf(&q, "procs=%d&full=1", o.procs)
	if o.speeds != nil {
		q.WriteString("&speeds=")
		for i, s := range o.speeds {
			if i > 0 {
				q.WriteByte(',')
			}
			q.WriteString(strconv.FormatFloat(s, 'g', -1, 64))
		}
	}
	if o.crash != nil {
		fmt.Fprintf(&q, "&crash=%d@%s", o.crash.proc, strconv.FormatFloat(o.crash.at, 'f', 2, 64))
	}
	if o.jitter > 0 {
		fmt.Fprintf(&q, "&jitter=%s", strconv.FormatFloat(o.jitter, 'g', -1, 64))
	}
	if o.seed != 0 {
		fmt.Fprintf(&q, "&seed=%d", o.seed)
	}
	return q.String()
}

// Mix dimensions shared by the serve workloads. Fresh requests come in
// blocks of blockLen, one request per (shape, CCR, processor count) cell
// in an order drawn per block. Sizes are log-uniform in sizeStrata
// strata: each cell steps through the strata one block at a time from a
// seeded offset, and a cell is on skewed speeds in every skewEvery-th
// block. So every sizeStrata·skewEvery consecutive blocks hold the same
// mix of cells, sizes and machines whatever the seed, and a run's figures
// do not drift with the seed's luck of the draw.
const sizeStrata = 4

var (
	mixCCRs  = []float64{0.2, 1, 5}
	blockLen = int(numShapes) * len(mixCCRs) * 3 // three processor counts
)

// skewedSpeeds is the related machine of the ?speeds= requests: a quarter
// of the processors at speed 4, a quarter at speed 2, the rest at 1.
func skewedSpeeds(p int) []float64 {
	s := make([]float64, p)
	for i := range s {
		switch {
		case i < p/4:
			s[i] = 4
		case i < p/2:
			s[i] = 2
		default:
			s[i] = 1
		}
	}
	return s
}

// serveSpec describes the request stream of one serve workload.
type serveSpec struct {
	name        string
	minV, maxV  int
	procs       [3]int  // processor counts of the mix
	skewEvery   int     // a cell is on skewed speeds one block in skewEvery; 0: never
	repeatEvery int     // every repeatEvery-th request repeats an earlier one; 0: none
	faults      bool    // one crash, jitter and an explicit seed per request
	repeatLo    int     // a repeat copies a request at least this many places back
	repeatHi    int     // and at most this many
	jitter      float64 // execution jitter of fault requests
}

// freshOp is the k-th fresh (non-repeat) request of the stream.
func (sp *serveSpec) freshOp(seed int64, k int) op {
	b, pos := k/blockLen, k%blockLen
	cell := stream(seed, sp.name, "block", b).perm(blockLen)[pos]
	sh := shape(cell % int(numShapes))
	ccr := mixCCRs[(cell/int(numShapes))%len(mixCCRs)]
	procs := sp.procs[cell/(int(numShapes)*len(mixCCRs))]
	stratum := (stream(seed, sp.name, "offsets").perm(blockLen)[cell] + b) % sizeStrata

	r := stream(seed, sp.name, "op", k)
	u := (float64(stratum) + r.float()) / sizeStrata
	v := int(math.Round(math.Exp(math.Log(float64(sp.minV)) + u*(math.Log(float64(sp.maxV))-math.Log(float64(sp.minV))))))
	o := op{g: genGraph(r, sh, v, 0, ccr), procs: procs, source: -1}
	if sp.skewEvery > 0 && (cell+b)%sp.skewEvery == 0 {
		o.speeds = skewedSpeeds(procs)
	}
	if sp.faults {
		// The crash lands at 50-80% of the mean processor load, inside
		// the makespan, so every crash strands work to repair.
		o.crash = &crash{proc: r.intn(procs), at: math.Round((0.5+0.3*r.float())*o.g.totalComp/float64(procs)*100) / 100}
		o.jitter = sp.jitter
		o.seed = 1 + int64(r.next()>>2)
	}
	return o
}

// ops returns the first n requests of the stream. Repeats copy an earlier
// fresh request's bytes exactly.
func (sp *serveSpec) ops(seed int64, n int) []op {
	out := make([]op, 0, n)
	fresh := 0
	for i := 0; i < n; i++ {
		if sp.repeatEvery > 0 && i%sp.repeatEvery == sp.repeatEvery-1 && i >= sp.repeatHi {
			r := stream(seed, sp.name, "repeat", i)
			j := i - sp.repeatLo - r.intn(sp.repeatHi-sp.repeatLo+1)
			for out[j].source >= 0 {
				j = out[j].source
			}
			o := out[j]
			o.source = j
			out = append(out, o)
			continue
		}
		out = append(out, sp.freshOp(seed, fresh))
		fresh++
	}
	return out
}

// warmupOps are the fixed requests sent before timing: one block, every
// cell of the mix once, from a stream no run seed shares, so their cache
// keys never meet the timed corpus.
func (sp *serveSpec) warmupOps() []op {
	w := *sp
	w.name = sp.name + "/warmup"
	out := make([]op, blockLen)
	for k := range out {
		out[k] = w.freshOp(-1, k)
	}
	return out
}

// libGraph is one graph of the library workload.
type libGraph struct {
	sh    shape
	v     int
	width int
	ccr   float64
}

// libText generates graph i of the library workload's corpus. The corpus
// is a pure function of the seed, so the workload generates each graph
// when it needs it and holds at most one body at a time.
func libText(seed int64, i int) graphText {
	s := libSpecs[i]
	return genGraph(stream(seed, "lib-large", i), s.sh, s.v, s.width, s.ccr)
}

// digest fingerprints the exact bytes a workload feeds the program.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add absorbs one input: a label (query string or graph name) and its body.
func (d *digest) add(label string, body []byte) {
	fmt.Fprintf(d.h, "%s\n%d\n", label, len(body))
	d.h.Write(body)
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

func serveDigest(ops []op) string {
	d := newDigest()
	for i := range ops {
		d.add(ops[i].query(), ops[i].g.body)
	}
	return d.hex()
}

func libDigest(seed int64) string {
	d := newDigest()
	for i := range libSpecs {
		d.add(fmt.Sprintf("graph %d", i), libText(seed, i).body)
	}
	return d.hex()
}
