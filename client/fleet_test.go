package client

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bufferkit/internal/fleet"
	"bufferkit/internal/server"
)

const fakeSolveBody = `{"net":"line","algorithm":"new","slack":42,"buffers":1,"placement":{"v1":"b0"}}`

// fakePeers starts n fake solve endpoints that count their /v1/solve
// hits, returning their URLs and counters.
func fakePeers(t *testing.T, n int) ([]string, []*atomic.Int64) {
	t.Helper()
	urls := make([]string, n)
	calls := make([]*atomic.Int64, n)
	for i := range n {
		c := new(atomic.Int64)
		calls[i] = c
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, fakeSolveBody)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls, calls
}

// homeIndex resolves which member of urls is the request digest's ring
// home — the same computation solveTargets performs.
func homeIndex(urls []string, req SolveRequest) int {
	key := fleet.RouteKey(sha256.Sum256([]byte(req.Net)), sha256.Sum256([]byte(req.Library)))
	home := fleet.NewRing(urls).Owners(key, 1)[0]
	for i, u := range urls {
		if u == home {
			return i
		}
	}
	return -1
}

// TestWithPeersAffinityRouting: with a static peer list, Solve goes
// straight to the digest's cache home, not the base URL.
func TestWithPeersAffinityRouting(t *testing.T) {
	urls, calls := fakePeers(t, 3)
	req := SolveRequest{Net: "affinity-net", Library: "affinity-lib"}
	home := homeIndex(urls, req)
	// Base deliberately different from the home, so a hit at the home
	// proves affinity routing.
	base := urls[(home+1)%3]
	c, err := New(base, WithPeers(urls...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	for i, n := range calls {
		want := int64(0)
		if i == home {
			want = 1
		}
		if n.Load() != want {
			t.Fatalf("peer %d saw %d solves, want %d (home = %d)", i, n.Load(), want, home)
		}
	}
}

// TestPeerFailover: a dead home fails over to the next ring member
// immediately, counted in Stats.
func TestPeerFailover(t *testing.T) {
	urls, calls := fakePeers(t, 2)
	// Third member: a dead port — nobody listening.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ringURLs := append([]string{deadURL}, urls...)
	// Pick a net whose ring home is the dead member, so the first attempt
	// must fail over.
	var req SolveRequest
	for i := 0; ; i++ {
		req = SolveRequest{Net: fmt.Sprintf("failover-net-%d", i), Library: "failover-lib"}
		if ringURLs[homeIndex(ringURLs, req)] == deadURL {
			break
		}
	}
	c, err := New(urls[0], WithPeers(ringURLs...))
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(context.Context, time.Duration) error { return nil }
	res, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slack != 42 {
		t.Fatalf("result = %+v", res)
	}
	if got := c.Stats().PeerFailovers; got < 1 {
		t.Fatalf("PeerFailovers = %d, want >= 1", got)
	}
	total := int64(0)
	for _, n := range calls {
		total += n.Load()
	}
	if total != 1 {
		t.Fatalf("live peers saw %d solves, want exactly 1 after failover", total)
	}
}

// TestBootstrapPeers: the client adopts a fleet node's member list, and
// a single node leaves routing untouched.
func TestBootstrapPeers(t *testing.T) {
	urls, calls := fakePeers(t, 3)
	req := SolveRequest{Net: "bootstrap-net", Library: "bootstrap-lib"}
	home := homeIndex(urls, req)

	topo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"enabled":true,"self":%q,"replicas":2,"peers":[{"url":%q,"state":"alive"},{"url":%q,"state":"alive"},{"url":%q,"state":"alive"}]}`,
			urls[0], urls[0], urls[1], urls[2])
	}))
	t.Cleanup(topo.Close)
	c, err := New(topo.URL)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.BootstrapPeers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || len(info.Peers) != 3 {
		t.Fatalf("fleet info = %+v", info)
	}
	if _, err := c.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if calls[home].Load() != 1 {
		t.Fatalf("home saw %d solves after bootstrap, want 1", calls[home].Load())
	}

	// A non-fleet node: bootstrap is a no-op and solves keep using the
	// base URL.
	single := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(single.Close)
	sc, err := New(single.URL)
	if err != nil {
		t.Fatal(err)
	}
	info, err = sc.BootstrapPeers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Enabled {
		t.Fatal("single node reported an enabled fleet")
	}
	if sc.solveTargets(&req) != nil {
		t.Fatal("single-node client grew fleet targets")
	}
}

// TestHedgeStats: the win/loss record distinguishes a hedge that beat a
// stalled home from one the primary outran.
func TestHedgeStats(t *testing.T) {
	// Two members whose behavior is assigned after roles are known:
	// mode 0 = answer immediately, 1 = stall until released, 2 = answer
	// after a delay longer than the hedge trigger.
	modes := [2]atomic.Int64{}
	release := make(chan struct{})
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch modes[i].Load() {
			case 1:
				<-release
				return
			case 2:
				time.Sleep(60 * time.Millisecond)
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, fakeSolveBody)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	defer close(release)
	req := SolveRequest{Net: "hedge-net", Library: "hedge-lib"}
	home := homeIndex(urls, req)

	c, err := New(urls[0], WithPeers(urls...), WithHedging(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: home stalls, the hedge to the replica wins.
	modes[home].Store(1)
	if _, err := c.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.HedgesLaunched != 1 || s.HedgeWins != 1 || s.HedgeLosses != 0 {
		t.Fatalf("after hedge win: %+v", s)
	}

	// Round 2: the home answers after 60 ms — late enough to trigger the
	// 10 ms hedge, early enough to beat the stalled replica. The hedge
	// launches and loses.
	modes[home].Store(2)
	modes[1-home].Store(1)
	if _, err := c.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.HedgesLaunched != 2 || s.HedgeWins != 1 || s.HedgeLosses != 1 {
		t.Fatalf("after hedge loss: %+v", s)
	}
}

// TestNoHedgeOnStreamingEndpoints: hedging is armed, yet batch, chip and
// session requests — streaming or stateful, hence not idempotent — are
// sent exactly once even when slow.
func TestNoHedgeOnStreamingEndpoints(t *testing.T) {
	var batchCalls, chipCalls, sessionCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond) // far past the hedge delay
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/v1/batch":
			batchCalls.Add(1)
			fmt.Fprintln(w, `{"index":0,"result":`+fakeSolveBody+`}`)
		case r.URL.Path == "/v1/chip":
			chipCalls.Add(1)
			fmt.Fprintln(w, `{"done":{"algorithm":"new","feasible":true,"nets":1}}`)
		default:
			sessionCalls.Add(1)
			fmt.Fprint(w, `{"net":"line","algorithm":"new"}`)
		}
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, WithHedging(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	bs, err := c.Batch(ctx, BatchRequest{Library: "l", Nets: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Collect(1); err != nil {
		t.Fatal(err)
	}
	bs.Close()

	cs, err := c.Chip(ctx, ChipRequest{Instance: []byte(`{}`), Library: "l"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Collect(); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	if _, err := c.SessionPut(ctx, "s1", SessionRequest{Net: "n", Library: "l"}); err != nil {
		t.Fatal(err)
	}

	for name, n := range map[string]*atomic.Int64{
		"batch": &batchCalls, "chip": &chipCalls, "session": &sessionCalls,
	} {
		if n.Load() != 1 {
			t.Fatalf("%s endpoint saw %d requests, want exactly 1 (never hedged)", name, n.Load())
		}
	}
	if s := c.Stats(); s.HedgesLaunched != 0 {
		t.Fatalf("streaming endpoints launched hedges: %+v", s)
	}
}

// TestHedgedSolveVerdictEndsCall: with hedging armed in fleet mode, the
// home's verdict (a 504 here) is the answer — the replica is never asked
// — while a home that is down fails over to the replica without spending
// a hedge.
func TestHedgedSolveVerdictEndsCall(t *testing.T) {
	var calls, verdict [2]atomic.Int64
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls[i].Add(1)
			if verdict[i].Load() != 0 {
				w.WriteHeader(http.StatusGatewayTimeout)
				fmt.Fprint(w, `{"error":"solve canceled: deadline"}`)
				return
			}
			fmt.Fprint(w, fakeSolveBody)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	req := SolveRequest{Net: "verdict-net", Library: "verdict-lib"}
	home := homeIndex(urls, req)
	verdict[home].Store(1)
	c, err := New(urls[0], WithPeers(urls...), WithHedging(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.Solve(context.Background(), req); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want the home's 504", err)
	}
	if n := calls[1-home].Load(); n != 0 {
		t.Fatalf("replica saw %d solves after the home's verdict, want 0", n)
	}

	// A dead home: nobody listening on its port.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	live := 1 - home
	ringURLs := []string{dead.URL, urls[live]}
	for i := 0; ringURLs[homeIndex(ringURLs, req)] != dead.URL; i++ {
		req.Net = fmt.Sprintf("verdict-net-%d", i)
	}
	c, err = New(urls[live], WithPeers(ringURLs...), WithHedging(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(context.Context, time.Duration) error { return nil }
	if res, err := c.Solve(context.Background(), req); err != nil || res.Slack != 42 {
		t.Fatalf("solve with a dead home = %+v, %v; want the replica's answer", res, err)
	}
	if n := calls[live].Load(); n != 1 {
		t.Fatalf("replica saw %d solves, want 1 failover", n)
	}
	if s := c.Stats(); s.HedgesLaunched != 0 {
		t.Fatalf("failover counted as a hedge: %+v", s)
	}
}
