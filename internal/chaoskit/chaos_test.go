package chaoskit_test

// The TestChaos* suite: end-to-end proof of graceful degradation. A real
// bufferkitd handler is served over real sockets, the public client talks
// to it, and chaoskit injects the faults. Every scenario also gates on
// goroutine leaks — resilience that leaks a goroutine per fault is a slow
// outage, not resilience. CI runs this suite separately under -race
// (`go test -race -run 'TestChaos' ./...`).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufferkit/client"
	"bufferkit/internal/chaoskit"
	"bufferkit/internal/server"
)

func TestMain(m *testing.M) {
	chaoskit.RegisterAlgorithms()
	os.Exit(m.Run())
}

func readTestdata(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// distinctNet renames the line.net payload so each request gets its own
// cache key (and therefore its own engine run).
func distinctNet(t testing.TB, i int) string {
	t.Helper()
	return strings.Replace(readTestdata(t, "line.net"), "net line", fmt.Sprintf("net line%d", i), 1)
}

// leakCheck snapshots the goroutine count and returns a gate that fails
// the test if it has not returned to baseline.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// testRig is one chaos scenario's fixture: a real server over a real
// socket, a client with its own transport, and metric access.
type testRig struct {
	srv    *server.Server
	ts     *httptest.Server
	client *client.Client
	tr     *http.Transport
}

func newRig(t *testing.T, cfg server.Config, opts ...client.Option) *testRig {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	opts = append([]client.Option{client.WithHTTPClient(&http.Client{Transport: tr})}, opts...)
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{srv: s, ts: ts, client: c, tr: tr}
	t.Cleanup(rig.close)
	return rig
}

// close tears the rig down; idempotent so tests can call it before their
// goroutine-leak gate and still leave the Cleanup registered.
func (r *testRig) close() {
	r.tr.CloseIdleConnections()
	r.ts.Close()
}

func (r *testRig) metric(t testing.TB, name string) int64 {
	t.Helper()
	m, err := r.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var n json.Number
	if err := json.Unmarshal(m[name], &n); err != nil {
		t.Fatalf("metric %q = %s: %v", name, m[name], err)
	}
	f, err := n.Float64()
	if err != nil {
		t.Fatal(err)
	}
	return int64(f)
}

func (r *testRig) waitMetric(t testing.TB, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.metric(t, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("metric %s = %d never reached %d", name, r.metric(t, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSingleflightCollapse: 64 identical concurrent solves through
// the public API run the engine exactly once.
func TestChaosSingleflightCollapse(t *testing.T) {
	check := leakCheck(t)
	rig := newRig(t, server.Config{MaxConcurrent: 4})
	release := chaoskit.HoldGate()
	defer release()
	req := client.SolveRequest{
		Net:          readTestdata(t, "line.net"),
		Library:      readTestdata(t, "lib8.buf"),
		SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoGate},
	}
	runsBefore := rig.metric(t, "engine_runs")

	const n = 64
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := rig.client.Solve(context.Background(), req)
			if err != nil {
				errc <- err
				return
			}
			if res.Buffers != 0 { // chaos-gate places no buffers
				errc <- fmt.Errorf("unexpected result %+v", res)
			}
		}()
	}
	// All 64 are in the handler, exactly one engine run holds the gate;
	// give the rest a beat to join the flight, then open it.
	rig.waitMetric(t, "solve_requests", n)
	rig.waitMetric(t, "in_flight_runs", 1)
	time.Sleep(20 * time.Millisecond)
	release()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runs := rig.metric(t, "engine_runs"); runs != runsBefore+1 {
		t.Fatalf("engine_runs moved %d → %d for %d identical solves, want exactly +1",
			runsBefore, runs, n)
	}
	rig.close()
	check()
}

// TestChaosOverloadSheds: 4× offered load over engine capacity — every
// request terminates promptly as a result or a clean 429 with
// Retry-After; nothing hangs, the shed counters advance, and the
// goroutine count returns to baseline.
func TestChaosOverloadSheds(t *testing.T) {
	check := leakCheck(t)
	rig := newRig(t, server.Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  50 * time.Millisecond,
	}, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	chaoskit.SetSlowDelay(100 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	lib := readTestdata(t, "lib8.buf")

	const n = 16 // 4× the 2 slots + 2 queue positions
	type outcome struct {
		status  int
		elapsed time.Duration
	}
	outcomes := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			_, err := rig.client.Solve(context.Background(), client.SolveRequest{
				Net: distinctNet(t, i), Library: lib,
				SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoSlow},
			})
			o := outcome{status: http.StatusOK, elapsed: time.Since(start)}
			if err != nil {
				var apiErr *client.APIError
				if !errors.As(err, &apiErr) {
					t.Errorf("request %d died with a non-API error: %v", i, err)
					o.status = -1
				} else {
					o.status = apiErr.Status
					if apiErr.Status == http.StatusTooManyRequests && apiErr.RetryAfter <= 0 {
						t.Errorf("429 without a Retry-After hint: %+v", apiErr)
					}
				}
			}
			outcomes <- o
		}(i)
	}
	wg.Wait()
	close(outcomes)
	var solved, shed int
	var worstShed time.Duration
	for o := range outcomes {
		switch o.status {
		case http.StatusOK:
			solved++
		case http.StatusTooManyRequests:
			shed++
			if o.elapsed > worstShed {
				worstShed = o.elapsed
			}
		default:
			t.Errorf("terminal status %d, want 200 or 429", o.status)
		}
	}
	if solved+shed != n {
		t.Fatalf("solved %d + shed %d != %d offered", solved, shed, n)
	}
	if shed == 0 {
		t.Fatal("4× overload shed nothing — the queue is not bounding load")
	}
	if solved == 0 {
		t.Fatal("4× overload solved nothing — shedding everything is an outage, not degradation")
	}
	// A shed is a fast failure: bounded by queue timeout + slack, far
	// below what waiting for the full backlog would take.
	if worstShed > 2*time.Second {
		t.Fatalf("slowest shed took %v — sheds must fail fast", worstShed)
	}
	if rig.metric(t, "shed_total") != int64(shed) {
		t.Fatalf("shed_total = %d, client saw %d sheds", rig.metric(t, "shed_total"), shed)
	}
	rig.close()
	check()
}

// TestChaosPanicContained: an engine panic becomes a 500 with
// panics_total incremented, and the server keeps serving on the same
// connection pool.
func TestChaosPanicContained(t *testing.T) {
	log.SetOutput(io.Discard) // silence the expected panic stack
	defer log.SetOutput(os.Stderr)
	check := leakCheck(t)
	rig := newRig(t, server.Config{})
	lib := readTestdata(t, "lib8.buf")
	_, err := rig.client.Solve(context.Background(), client.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoPanic},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("panicking solve = %v, want a 500 APIError", err)
	}
	if got := rig.metric(t, "panics_total"); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// The server is still alive, correct, and countable.
	res, err := rig.client.Solve(context.Background(), client.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
	})
	if err != nil || res.Buffers <= 0 {
		t.Fatalf("solve after panic: %+v, %v", res, err)
	}
	if got := rig.metric(t, "panics_total"); got != 1 {
		t.Fatalf("panics_total after recovery = %d, want still 1", got)
	}
	rig.close()
	check()
}

// TestChaosRetryRecoversFromShed: a request shed by a saturated server is
// retried after the server's Retry-After hint and succeeds once capacity
// frees up — the end-to-end client/server backpressure loop.
func TestChaosRetryRecoversFromShed(t *testing.T) {
	check := leakCheck(t)
	rig := newRig(t, server.Config{MaxConcurrent: 1, MaxQueue: -1})
	lib := readTestdata(t, "lib8.buf")
	release := chaoskit.HoldGate()
	defer release()
	gateDone := make(chan error, 1)
	go func() {
		_, err := rig.client.Solve(context.Background(), client.SolveRequest{
			Net: readTestdata(t, "line.net"), Library: lib,
			SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoGate},
		})
		gateDone <- err
	}()
	rig.waitMetric(t, "in_flight_runs", 1)

	// This solve is shed (429 + Retry-After ~1s), sleeps, retries, and
	// must succeed because the gate opens meanwhile.
	retried := make(chan error, 1)
	go func() {
		_, err := rig.client.Solve(context.Background(), client.SolveRequest{
			Net: distinctNet(t, 1), Library: lib,
		})
		retried <- err
	}()
	rig.waitMetric(t, "shed_total", 1)
	release()
	if err := <-gateDone; err != nil {
		t.Fatalf("gated solve failed: %v", err)
	}
	if err := <-retried; err != nil {
		t.Fatalf("shed solve was not recovered by the retry loop: %v", err)
	}
	rig.close()
	check()
}

// TestChaosDeadlineShedFastFail: with a warm EWMA and a saturated server,
// a request whose budget cannot cover a solve fails in microseconds, not
// after queueing for its whole deadline.
func TestChaosDeadlineShedFastFail(t *testing.T) {
	check := leakCheck(t)
	rig := newRig(t, server.Config{MaxConcurrent: 1},
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	lib := readTestdata(t, "lib8.buf")
	chaoskit.SetSlowDelay(80 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	if _, err := rig.client.Solve(context.Background(), client.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoSlow},
	}); err != nil {
		t.Fatalf("EWMA warmup solve: %v", err)
	}
	release := chaoskit.HoldGate()
	defer release()
	gateDone := make(chan error, 1)
	go func() {
		_, err := rig.client.Solve(context.Background(), client.SolveRequest{
			Net: distinctNet(t, 1), Library: lib,
			SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoGate},
		})
		gateDone <- err
	}()
	rig.waitMetric(t, "in_flight_runs", 1)

	start := time.Now()
	_, err := rig.client.Solve(context.Background(), client.SolveRequest{
		Net: distinctNet(t, 2), Library: lib,
		SolveOptions: client.SolveOptions{TimeoutMs: 1},
	})
	elapsed := time.Since(start)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("doomed solve = %v, want 429", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline shed took %v — it must fail fast, not queue", elapsed)
	}
	if rig.metric(t, "shed_deadline") != 1 {
		t.Fatalf("shed_deadline = %d, want 1", rig.metric(t, "shed_deadline"))
	}
	release()
	if err := <-gateDone; err != nil {
		t.Fatalf("gated solve failed: %v", err)
	}
	rig.close()
	check()
}

// TestChaosPartialBatchStreamCut: a mid-NDJSON connection cut surfaces
// from the stream as an error on attempt #1 — a partially consumed batch
// is never silently re-run.
func TestChaosPartialBatchStreamCut(t *testing.T) {
	check := leakCheck(t)
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ft := &chaoskit.Transport{Base: &http.Transport{}}
	defer ft.Base.(*http.Transport).CloseIdleConnections()
	c, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: ft}))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the batch response after the first line's worth of bytes.
	ft.Push(chaoskit.Fault{CutBodyAfter: 64})
	nets := make([]string, 8)
	for i := range nets {
		nets[i] = distinctNet(t, i)
	}
	stream, err := c.Batch(context.Background(), client.BatchRequest{
		Library: readTestdata(t, "lib8.buf"), Nets: nets, Ordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = stream.Next(); err != nil {
			break
		}
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatal("cut stream drained cleanly — the truncation was invisible")
	}
	stream.Close()
	if got := ft.Requests(); got != 1 {
		t.Fatalf("transport saw %d requests — a partially consumed stream must never be retried", got)
	}
	ts.Close()
	check()
}

// TestChaosListenerReset: connections that reset after a byte budget
// produce bounded, surfaced failures — no hangs, no leaks.
func TestChaosListenerReset(t *testing.T) {
	check := leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: server.New(server.Config{}).Handler()}
	go hs.Serve(&chaoskit.Listener{Listener: ln, MaxWriteBytes: 100})
	defer hs.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c, err := client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Solve(ctx, client.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf"),
	}); err == nil {
		t.Fatal("solve through a 100-byte resetting listener succeeded?")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("solve hung until the test deadline: %v", err)
	}
	hs.Close()
	check()
}

// TestChaosHedgedSolve: a delayed first attempt is overtaken by the
// hedge launched after the latency hint.
func TestChaosHedgedSolve(t *testing.T) {
	check := leakCheck(t)
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ft := &chaoskit.Transport{Base: &http.Transport{}}
	defer ft.Base.(*http.Transport).CloseIdleConnections()
	c, err := client.New(ts.URL,
		client.WithHTTPClient(&http.Client{Transport: ft}),
		client.WithHedging(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// First attempt stalls 5s in the network; the hedge passes clean.
	ft.Push(chaoskit.Fault{Delay: 5 * time.Second})
	start := time.Now()
	res, err := c.Solve(context.Background(), client.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buffers <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hedged solve took %v — the hedge did not win", elapsed)
	}
	if got := ft.Requests(); got != 2 {
		t.Fatalf("transport saw %d requests, want original + hedge", got)
	}
	ts.Close()
	check()
}

// TestChaosHedgeBudget: about 4× offered load over engine capacity, with
// hedging armed at a delay every admitted solve outlasts. The hedge
// budget caps duplicates at the burst plus a tenth of the successful
// solves; unbudgeted, nearly every slow solve would send a second copy
// into the already overloaded server.
func TestChaosHedgeBudget(t *testing.T) {
	check := leakCheck(t)
	rig := newRig(t, server.Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  50 * time.Millisecond,
	},
		client.WithHedging(10*time.Millisecond),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
	chaoskit.SetSlowDelay(100 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	lib := readTestdata(t, "lib8.buf")

	// Capacity is 2 slots / 100 ms = 20 solves/s; offer 80/s for 1 s.
	const n, gap = 80, 12500 * time.Microsecond
	var solved atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := rig.client.Solve(context.Background(), client.SolveRequest{
				Net: distinctNet(t, i), Library: lib,
				SolveOptions: client.SolveOptions{Algorithm: chaoskit.AlgoSlow},
			})
			if err == nil {
				solved.Add(1)
				return
			}
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
				t.Errorf("request %d: %v, want a result or a 429", i, err)
			}
		}(i)
		time.Sleep(gap)
	}
	wg.Wait()
	s := rig.client.Stats()
	t.Logf("solved %d of %d, stats %+v", solved.Load(), n, s)
	if s.HedgesLaunched == 0 {
		t.Fatal("hedging is armed but no solve hedged")
	}
	if limit := 10 + 0.1*float64(solved.Load()); float64(s.HedgesLaunched) > limit {
		t.Fatalf("%d hedges launched for %d successful solves, budget allows %.1f",
			s.HedgesLaunched, solved.Load(), limit)
	}
	rig.close()
	check()
}
