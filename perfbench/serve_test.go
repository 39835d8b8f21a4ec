package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestOpenLoopSpoolsEveryReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%s|%d", r.URL.RawQuery, len(b))
	}))
	defer srv.Close()

	const rate = 400.0
	ops := serveSpecs["serve-mixed"].ops(1, 40)
	clients := newClients(2)
	defer closeClients(clients)
	replies, lag, spools, err := openLoop(srv.URL, ops, rate, clients, t.TempDir())
	defer func() {
		for _, f := range spools {
			f.Close()
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(ops) || len(lag) != len(ops) {
		t.Fatalf("%d replies and %d lags for %d requests", len(replies), len(lag), len(ops))
	}
	for i := range replies {
		r := &replies[i]
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, error %v", i, r.status, r.err)
		}
		body, err := r.body()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%s|%d", ops[i].query(), len(ops[i].g.body)); string(body) != want {
			t.Fatalf("request %d: spooled reply %q, want %q", i, body, want)
		}
		if want := time.Duration(float64(i) / rate * float64(time.Second)); r.due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.due, want)
		}
		if r.sent < r.due || r.done < r.sent {
			t.Fatalf("request %d: due %v, sent %v, done %v out of order", i, r.due, r.sent, r.done)
		}
	}
}
