package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one flbd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts flbd and waits for /readyz to answer 200. It returns
// the time from exec to ready.
func startDaemon(flbd, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:  exec.Command(flbd, "-addr", addr, "-seed", "1", "-cache", "512", "-queue", "64"),
		base: "http://" + addr,
		log:  logf,
		done: make(chan error, 1),
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start flbd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, 0, fmt.Errorf("flbd exited before ready: %v (log %s)", err, logPath)
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, time.Since(t0), nil
		}
	}
	d.stop()
	return nil, 0, fmt.Errorf("flbd not ready within 30s (log %s)", logPath)
}

// stop sends SIGTERM, which drains and exits flbd, and waits for the
// process; it kills it if the drain takes over 30 s.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("flbd did not drain within 30s; killed")
	}
}

// peakRSSMB reads a process's VmHWM from /proc in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// svcMetrics is the part of flbd's /metrics document the benchmark reads.
type svcMetrics struct {
	Service struct {
		ShedQueueFull int64 `json:"shed_queue_full_429"`
		ShedDeadline  int64 `json:"shed_deadline_503"`
		Unavailable   int64 `json:"unavailable_503"`
	} `json:"service"`
}

func (d *daemon) metrics() (svcMetrics, error) {
	var m svcMetrics
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// reply is one request's outcome. Times are offsets from the start of the
// open loop. The body waits in a spool file until the checks read it: a
// run's replies add up to hundreds of megabytes.
type reply struct {
	status          int
	spool           *os.File
	off, n          int64
	err             error
	due, sent, done time.Duration
}

// body reads the reply's body back from its spool file.
func (r *reply) body() ([]byte, error) {
	b := make([]byte, r.n)
	if r.n == 0 {
		return b, nil
	}
	_, err := r.spool.ReadAt(b, r.off)
	return b, err
}

// newClients returns n clients that each hold at most one connection.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// post sends one op and copies the reply body to w.
func post(c *http.Client, base string, o *op, w io.Writer) (status int, n int64, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, base+"/schedule?"+o.query(), bytes.NewReader(o.g.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err = io.Copy(w, resp.Body)
	return resp.StatusCode, n, err
}

// warmUp sends the fixed warm-up requests one at a time, in turn over
// each client, and fails unless each is answered 200. Warming up over the
// open loop's own clients leaves their connections open for it.
func warmUp(base string, ops []op, clients []*http.Client) error {
	var body bytes.Buffer
	for i := range ops {
		body.Reset()
		status, _, err := post(clients[i%len(clients)], base, &ops[i], &body)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %.200s", i, status, body.Bytes())
		}
	}
	return nil
}

// openLoop sends ops[i] when it falls due, at i/rate seconds after the
// start, over one connection per client. A request waits for a free
// connection if every one is busy; its latency counts from its due time
// all the same. lag[i] is how late the generator itself handed request i
// to the senders.
//
// Each sender spools its reply bodies into its own file in dir; the
// caller closes and removes the returned files.
func openLoop(base string, ops []op, rate float64, clients []*http.Client, dir string) (replies []reply, lag []float64, spools []*os.File, err error) {
	for range clients {
		f, err := os.CreateTemp(dir, "replies-*.spool")
		if err != nil {
			return nil, nil, spools, err
		}
		spools = append(spools, f)
	}
	replies = make([]reply, len(ops))
	lag = make([]float64, len(ops))
	flushErr := make([]error, len(clients))
	// Buffered to the number of sends: the dispatcher never blocks, so a
	// stalled sender cannot delay the schedule.
	queue := make(chan int, len(ops))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := bufio.NewWriterSize(spools[c], 1<<20)
			var off int64
			for i := range queue {
				r := &replies[i]
				r.sent = time.Since(start)
				r.status, r.n, r.err = post(clients[c], base, &ops[i], w)
				r.done = time.Since(start)
				r.spool, r.off = spools[c], off
				off += r.n
			}
			flushErr[c] = w.Flush()
		}(c)
	}
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		replies[i].due = due
		lag[i] = ms(time.Since(start) - due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	if err := errors.Join(flushErr...); err != nil {
		return nil, nil, spools, fmt.Errorf("spool replies: %w", err)
	}
	return replies, lag, spools, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
