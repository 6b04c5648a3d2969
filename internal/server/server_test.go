package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestListenIdempotentAndServeDrains(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.Listen(); again != addr {
		t.Errorf("second Listen moved: %s vs %s", again, addr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx) }()

	url := "http://" + addr
	waitHealthy(t, url)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	// The listener is closed: new requests must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("request succeeded after shutdown")
	}
}

// TestGracefulDrainFinishesInflight cancels the serve context while a
// decision is deliberately held mid-flight; the drain must let it
// finish with a 200 instead of cutting the connection.
func TestGracefulDrainFinishesInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, err := New(Config{
		Addr:  "127.0.0.1:0",
		Areas: testAreas(),
		testHook: func() {
			once.Do(func() { close(entered) })
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx) }()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/decide", "application/json",
			strings.NewReader(`{"vehicle_id":"v","area":"chicago"}`))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	<-entered // the request is in the handler
	cancel()  // begin graceful drain with it still in flight
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if status := <-reqDone; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain", status)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not finish draining")
	}
}

func TestServeListenError(t *testing.T) {
	s1, err := New(Config{Addr: "127.0.0.1:0", Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Addr: addr, Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Listen(); err == nil {
		t.Error("second bind of the same address succeeded")
	}
}

// waitHealthy polls healthz until the server answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", base)
}

// TestSeqIDMatchesFmt pins the generated request and decision ids to
// the bytes fmt rendered them with.
func TestSeqIDMatchesFmt(t *testing.T) {
	for _, seq := range []uint64{0, 1, 42, 999999, 1000000, 9999999, 10000000, 123456789012, math.MaxUint64} {
		if got, want := seqID("6f1f3a9c-", seq, 7), fmt.Sprintf("%s-%07d", "6f1f3a9c", seq); got != want {
			t.Errorf("request id %d: %q, want %q", seq, got, want)
		}
		if got, want := seqID("6f1f3a9c-d", seq, 6), fmt.Sprintf("%s-d%06d", "6f1f3a9c", seq); got != want {
			t.Errorf("decision id %d: %q, want %q", seq, got, want)
		}
	}
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	id := s.newRequestID()
	if want := s.reqPrefix + "0000001"; id != want || !strings.HasSuffix(s.reqPrefix, "-") || len(s.reqPrefix) != 9 {
		t.Errorf("first request id %q, want %q (boot id, dash, 7 digits)", id, want)
	}
}
