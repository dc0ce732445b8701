package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"bufferkit"
	"bufferkit/internal/experiments"
	"bufferkit/internal/netgen"
	"bufferkit/internal/resilience"
	"bufferkit/internal/server/cache"
)

// The service-mix rate ladder: requests per second and each step's share
// of the run. The rates are fixed numbers, not derived from the machine,
// so every run of every commit offers the same load; they run from light
// load to past the saturation of a 2-CPU host. `high` offers about twice
// the capacity measured there, so a capacity gain still shows in its
// completion rate. The overloaded step is the shortest, because its
// backlog drains after it.
var ladder = []struct {
	name       string
	rps, share float64
}{{"low", 150, 0.5}, {"mid", 450, 0.35}, {"high", 4000, 0.15}}

const (
	// latencyLimit is the p99 a ladder step must meet to count towards
	// max_rate_rps. It sits well above the host stalls of tens of
	// milliseconds a shared 2-CPU machine shows, so only queueing fails it.
	latencyLimit = 100 * time.Millisecond
	// hotNets is the size of the hot set half of all requests repeat.
	hotNets = 256
	// rateBlock is the number of consecutive replies whose span gives one
	// sample of a step's completion rate.
	rateBlock = 256
	// conns is the generator's connection count. It stays below the
	// server's default admission capacity (one slot per CPU plus a queue
	// of 8 per slot) so overload shows as queueing, never as shedding.
	conns = 16
)

// serviceMix drives the bufferkitd binary with its operator defaults on
// loopback, open loop at the fixed ladder rates. Half of all requests
// repeat a net of the hot set (cache hits after warm-up); the other half
// are never-seen nets, which miss, insert into the 4096-entry LRU and over
// the run evict from it.
func serviceMix(r *run) error {
	misses := missCount(r)
	st, setup, err := timeSetup(3, func() (*mixState, error) { return newMixState(r.seed, misses, r.serverBin) }, (*mixState).close)
	if err != nil {
		return err
	}
	defer st.close()
	warm := st.warm(r)
	// bufferkitd's own counters, scraped around every step.
	counters := map[string]float64{}
	steps := make([]*stepResult, len(ladder))
	for i, l := range ladder {
		before, err := st.scrape()
		if err != nil {
			return err
		}
		if steps[i], err = st.step(r, l.rps, stepTime(r, l.share)); err != nil {
			return err
		}
		after, err := st.scrape()
		if err != nil {
			return err
		}
		for name, v := range after {
			counters[name] += v - before[name]
		}
	}
	rss, err := peakRSSMB(st.srv.Process.Pid)
	if err != nil {
		return err
	}
	var replay *replayResult
	if r.trace {
		if replay, err = st.replay(r, replayTime(r.seconds)); err != nil {
			return err
		}
	}
	if err := st.verify(r, warm, steps, replay); err != nil {
		return err
	}

	// max_rate_rps: the achieved rate of the highest ladder step whose p99
	// meets the limit with no backlog left at its end.
	maxRate := 0.0
	for _, s := range steps {
		if s.p99 <= latencyLimit && s.failed == 0 && s.backlog <= latencyLimit {
			maxRate = s.achieved
		}
	}
	if !r.trace {
		// The last step offers more than bufferkitd can serve, so its
		// completion rate is the server's capacity under this mix.
		r.set("setup_s", setup)
		r.set("throughput_per_s", completionRate(steps[len(steps)-1].reqs))
		r.set("latency_p50_ms", ms(steps[0].p50))
		r.set("peak_rss_mb", rss)
		return nil
	}
	for i, l := range ladder {
		r.set("solve_p50_ms."+l.name, ms(steps[i].p50))
		r.set("solve_p99_ms."+l.name, ms(steps[i].p99))
	}
	r.set("max_rate_rps", maxRate)
	r.set("server.overhead_ms.high", ms(steps[len(steps)-1].overhead))
	var lags []float64
	for _, s := range steps {
		lags = append(lags, s.lags...)
	}
	r.set("loadgen.lag_p99_ms", quantile(lags, 0.99))
	r.set("cache.hit_ratio", counters["cache_hits"]/counters["solve_requests"])
	r.set("server.engine_runs_per_miss", counters["engine_runs"]/counters["cache_misses"])
	r.set("resilience.shed_frac", counters["shed_total"]/counters["solve_requests"])
	replay.report(r, steps[0].p50)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mixRequest is one generated /v1/solve request body.
type mixRequest struct {
	body []byte
}

// mixState is the generated input of service-mix and the running server.
type mixState struct {
	rng    *rand.Rand
	hot    []mixRequest
	misses []mixRequest
	used   int // misses handed out so far
	// pair and hotFirst track the position in the current hit/miss pair.
	pair     int
	hotFirst bool
	srv      *exec.Cmd
	base     string
	client   *http.Client
}

// wireRequest and wireResponse mirror bufferkitd's /v1/solve JSON shapes.
type wireRequest struct {
	Net     string `json:"net"`
	Library string `json:"library"`
}

type wireResponse struct {
	Net        string            `json:"net,omitempty"`
	Algorithm  string            `json:"algorithm"`
	Slack      float64           `json:"slack"`
	Buffers    int               `json:"buffers"`
	Cost       int               `json:"cost"`
	Candidates int               `json:"candidates,omitempty"`
	Placement  map[string]string `json:"placement"`
	Stats      *bufferkit.Stats  `json:"stats,omitempty"`
	Cached     bool              `json:"cached"`
	Coalesced  bool              `json:"coalesced,omitempty"`
	ElapsedMs  float64           `json:"elapsed_ms,omitempty"`
}

// replayTime is how long the in-process replay runs at the low rate; it
// runs half as long at the high rate.
func replayTime(run time.Duration) time.Duration { return run / 4 }

// stepTime is the length of a ladder step with the given share. A traced
// run spends half its time on the ladder and the rest on the in-process
// replay.
func stepTime(r *run, share float64) time.Duration {
	d := time.Duration(share * float64(r.seconds))
	if r.trace {
		d /= 2
	}
	return d
}

// missCount is how many never-seen nets a run needs: half of the requests
// the ladder (and in a traced run the replay) sends, plus one per phase for
// a hit/miss pair that straddles two phases.
func missCount(r *run) int {
	n := 0
	for _, l := range ladder {
		n += int(l.rps*stepTime(r, l.share).Seconds())/2 + 1
	}
	if r.trace {
		d := replayTime(r.seconds)
		n += int(ladder[0].rps*d.Seconds())/2 + int(ladder[len(ladder)-1].rps*(d/2).Seconds())/2 + 2
	}
	return n
}

func newMixState(seed int64, misses int, serverBin string) (*mixState, error) {
	st := &mixState{rng: rand.New(rand.NewSource(seed))}
	libs := map[int]string{}
	for _, b := range mixLibs {
		var buf bytes.Buffer
		if err := bufferkit.WriteLibrary(&buf, bufferkit.GenerateLibrary(b)); err != nil {
			return nil, err
		}
		libs[b] = buf.String()
	}
	var err error
	if st.hot, err = genRequests(st.rng, hotNets, libs); err != nil {
		return nil, err
	}
	if st.misses, err = genRequests(st.rng, misses, libs); err != nil {
		return nil, err
	}
	if err := st.start(serverBin); err != nil {
		return nil, err
	}
	return st, nil
}

// mixLibs are the library sizes of service-mix requests.
var mixLibs = []int{8, 16, 64}

// genRequests draws n request bodies. Sizes are stratified: every block
// of 61×3 consecutive requests holds each (sinks 4..64, library) pair
// once, in seeded order, so every run offers the same mix of request
// sizes and only topologies and order vary with the seed. The bodies are
// built on every CPU.
func genRequests(rng *rand.Rand, n int, libs map[int]string) ([]mixRequest, error) {
	type shape struct {
		sinks, lib int
		seed       int64
	}
	var block []shape
	for sinks := 4; sinks <= 64; sinks++ {
		for _, b := range mixLibs {
			block = append(block, shape{sinks: sinks, lib: b})
		}
	}
	shapes := make([]shape, 0, n)
	for len(shapes) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, sh := range block[:min(len(block), n-len(shapes))] {
			sh.seed = rng.Int63()
			shapes = append(shapes, sh)
		}
	}
	out := make([]mixRequest, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				t := netgen.Random(netgen.Opts{Sinks: shapes[i].sinks, Seed: shapes[i].seed})
				var buf bytes.Buffer
				if errs[i] = bufferkit.WriteNet(&buf, &bufferkit.Net{Tree: t, Driver: experiments.Driver}); errs[i] != nil {
					continue
				}
				req := wireRequest{Net: buf.String(), Library: libs[shapes[i].lib]}
				body, err := json.Marshal(req)
				out[i], errs[i] = mixRequest{body: body}, err
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// start launches bufferkitd with its operator defaults on a free loopback
// port and waits until /readyz answers 200.
func (st *mixState) start(bin string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	st.srv = exec.Command(bin, "-addr", addr)
	// The server dies with the benchmark even if the benchmark is killed.
	st.srv.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := st.srv.Start(); err != nil {
		return fmt.Errorf("start bufferkitd: %w", err)
	}
	st.base = "http://" + addr
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(5 * time.Millisecond) {
		resp, err := st.client.Get(st.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	st.close()
	return errors.New("bufferkitd did not become ready within 10s")
}

// close stops the server: SIGTERM for a graceful drain, SIGKILL if it has
// not exited within five seconds. It waits for the process either way.
func (st *mixState) close() {
	if st.srv == nil || st.srv.Process == nil {
		return
	}
	st.client.CloseIdleConnections()
	_ = st.srv.Process.Signal(syscall.SIGTERM) // an error means it has already exited
	done := make(chan struct{})
	go func() {
		_ = st.srv.Wait() // a signal exit status is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = st.srv.Process.Kill() // Wait below reaps it
		<-done
	}
	st.srv = nil
}

// scrape reads bufferkitd's own counters from GET /metrics (expvar JSON),
// keeping the numeric ones.
func (st *mixState) scrape() (map[string]float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]float64{}
	for name, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[name] = f
		}
	}
	return out, nil
}

// sent is one request as the generator saw it.
type sent struct {
	req     *mixRequest
	due     time.Time
	lag     time.Duration // dispatch time minus due time
	latency time.Duration // completion minus due time
	service time.Duration // completion minus the start of the POST
	status  int
	body    []byte
	err     error
}

// stepResult summarizes one ladder step.
type stepResult struct {
	reqs     []*sent
	p50, p99 time.Duration
	// overhead is the median time from the start of the POST to its
	// completion minus the engine time the server reports, over uncached
	// engine runs, so the generator's own backlog is not in it.
	overhead time.Duration
	lags     []float64 // ms
	failed   int
	achieved float64 // successful requests per second
	backlog  time.Duration
}

// next draws the next request of the mix: a hot net or a never-seen one.
func (st *mixState) next() (*mixRequest, error) {
	// Requests come in pairs of one hot and one never-seen net, in seeded
	// order, so every run is exactly half hits.
	if st.pair == 0 {
		st.hotFirst = st.rng.Intn(2) == 0
	}
	st.pair ^= 1
	if st.hotFirst == (st.pair == 1) {
		return &st.hot[st.rng.Intn(len(st.hot))], nil
	}
	if st.used == len(st.misses) {
		return nil, errors.New("ran out of generated miss nets")
	}
	st.used++
	return &st.misses[st.used-1], nil
}

// warm sends every hot request once, so the hot set is cached before the
// ladder starts.
func (st *mixState) warm(r *run) []*sent {
	reqs := make([]*sent, len(st.hot))
	now := time.Now()
	for i := range st.hot {
		reqs[i] = &sent{req: &st.hot[i], due: now}
	}
	st.send(reqs, 2)
	st.account(r, reqs)
	return reqs
}

// step offers rps requests per second, Poisson arrivals, for d.
func (st *mixState) step(r *run, rps float64, d time.Duration) (*stepResult, error) {
	offsets := arrivals(st.rng, rps, d)
	reqs := make([]*sent, len(offsets))
	start := time.Now().Add(time.Millisecond)
	for i, at := range offsets {
		req, err := st.next()
		if err != nil {
			return nil, err
		}
		reqs[i] = &sent{req: req, due: start.Add(at)}
	}
	lastDone := st.send(reqs, conns)
	res := &stepResult{reqs: reqs}
	var lat, over []float64
	for _, s := range reqs {
		res.lags = append(res.lags, ms(s.lag))
		l := ms(s.latency)
		if s.status != http.StatusOK {
			res.failed++
			l = math.Inf(1) // a failed request misses every latency limit
		}
		lat = append(lat, l)
		var w wireResponse
		if s.status == http.StatusOK && json.Unmarshal(s.body, &w) == nil && !w.Cached && !w.Coalesced {
			over = append(over, ms(s.service)-w.ElapsedMs)
		}
	}
	res.p50 = time.Duration(quantile(lat, 0.5) * float64(time.Millisecond))
	res.p99 = time.Duration(math.Min(quantile(lat, 0.99), 1e9) * float64(time.Millisecond))
	if len(over) > 0 {
		res.overhead = time.Duration(median(over) * float64(time.Millisecond))
	}
	if len(reqs) > 0 {
		res.achieved = float64(len(reqs)-res.failed) / lastDone.Sub(start).Seconds()
		res.backlog = lastDone.Sub(reqs[len(reqs)-1].due)
	}
	st.account(r, reqs)
	return res, nil
}

// completionRate returns rateBlock over the median span of rateBlock
// consecutive successful replies; blocks do not overlap.
func completionRate(reqs []*sent) float64 {
	var done []time.Time
	for _, s := range reqs {
		if s.status == http.StatusOK {
			done = append(done, s.due.Add(s.latency))
		}
	}
	slices.SortFunc(done, time.Time.Compare)
	var spans []float64
	for i := rateBlock; i < len(done); i += rateBlock {
		spans = append(spans, done[i].Sub(done[i-rateBlock]).Seconds())
	}
	return rateBlock / median(spans)
}

// arrivals returns the send offsets of rps·d requests spread over d with
// exponential gaps: Poisson arrivals conditioned on their count, so every
// run offers exactly the same number of requests.
func arrivals(rng *rand.Rand, rps float64, d time.Duration) []time.Duration {
	n := int(rps * d.Seconds())
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		out[i] = time.Duration(at / sum * float64(d))
	}
	return out
}

// send dispatches reqs at their due times to workers sharing the client's
// connection pool, waits for every response and returns when the last one
// completed.
func (st *mixState) send(reqs []*sent, workers int) time.Time {
	queue := make(chan *sent, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queue {
				st.post(s)
				mu.Lock()
				if done := s.due.Add(s.latency); done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range reqs {
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		s.lag = time.Since(s.due)
		queue <- s
	}
	close(queue)
	wg.Wait()
	return last
}

// post sends one request and records its outcome; latency counts from the
// request's due time, service time from the start of the POST.
func (st *mixState) post(s *sent) {
	start := time.Now()
	resp, err := st.client.Post(st.base+"/v1/solve", "application/json", bytes.NewReader(s.req.body))
	if err == nil {
		s.body, s.err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	} else {
		s.err = err
	}
	end := time.Now()
	s.latency, s.service = end.Sub(s.due), end.Sub(start)
}

// account counts a batch of requests as attempted and their non-200
// replies and transport errors as failed; the answers are checked later by
// verify.
func (st *mixState) account(r *run, reqs []*sent) {
	for _, s := range reqs {
		r.attempted++
		if s.status != http.StatusOK {
			if r.failed == 0 {
				fmt.Fprintf(os.Stderr, "benchmark: service-mix: first failed request: status %d, error %v\n", s.status, s.err)
			}
			r.failed++
		}
	}
}

// reference is the in-process answer to one request.
type reference struct {
	slack   float64
	buffers int
}

// verify checks every 200 answer of the run against an in-process solve of
// the same request, made after the load so it cannot disturb it.
func (st *mixState) verify(r *run, warm []*sent, steps []*stepResult, replay *replayResult) error {
	type answer struct {
		req     *mixRequest
		slack   float64
		buffers int
	}
	var answers []answer
	add := func(reqs []*sent) {
		for _, s := range reqs {
			if s.status != http.StatusOK {
				continue
			}
			var w wireResponse
			if err := json.Unmarshal(s.body, &w); err != nil {
				r.mismatch("service-mix: undecodable 200 response: %v", err)
				continue
			}
			answers = append(answers, answer{s.req, w.Slack, w.Buffers})
		}
	}
	add(warm)
	for _, s := range steps {
		add(s.reqs)
	}
	if replay != nil {
		for _, o := range replay.ops {
			answers = append(answers, answer{o.req, o.resp.Slack, o.resp.Buffers})
		}
	}
	refs := map[*mixRequest]*reference{}
	for _, a := range answers {
		refs[a.req] = nil
	}
	if err := solveReferences(refs); err != nil {
		return err
	}
	for _, a := range answers {
		want := refs[a.req]
		if math.Float64bits(a.slack) != math.Float64bits(want.slack) || a.buffers != want.buffers {
			r.mismatch("service-mix: answer slack %v / %d buffers, reference %v / %d",
				a.slack, a.buffers, want.slack, want.buffers)
		}
	}
	return nil
}

// solveReferences fills refs with in-process solves on every CPU.
func solveReferences(refs map[*mixRequest]*reference) error {
	reqs := make([]*mixRequest, 0, len(refs))
	for req := range refs {
		reqs = append(reqs, req)
	}
	out := make([]*reference, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				out[i], errs[i] = solveReference(reqs[i])
			}
		}()
	}
	wg.Wait()
	for i, req := range reqs {
		refs[req] = out[i]
	}
	return errors.Join(errs...)
}

func solveReference(req *mixRequest) (*reference, error) {
	var w wireRequest
	if err := json.Unmarshal(req.body, &w); err != nil {
		return nil, err
	}
	net, err := bufferkit.ParseNet(strings.NewReader(w.Net))
	if err != nil {
		return nil, err
	}
	lib, err := bufferkit.ParseLibrary(strings.NewReader(w.Library))
	if err != nil {
		return nil, err
	}
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(net.Driver))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Run(context.Background(), net.Tree)
	if err != nil {
		return nil, err
	}
	return &reference{slack: res.Slack, buffers: res.Placement.Count()}, nil
}

// The in-process replay re-enacts bufferkitd's /v1/solve handler stage by
// stage through each layer's public functions, timing every call from
// outside: JSON decode of the wire type, cache key digest, cache lookup,
// net and library parse, admission, solver construction, the engine run,
// cache store and JSON encode.

// replayOp is one replayed request with the time spent in each layer.
type replayOp struct {
	req    *mixRequest
	resp   *wireResponse
	hit    bool
	layers [nLayers]time.Duration
	total  time.Duration
	traced bool
}

const (
	lDecode = iota
	lDigest
	lLookup
	lParse
	lAdmit
	lNewSolver
	lSolve
	lPut
	lEncode
	nLayers
)

var layerNames = [nLayers]string{
	"server.decode_us", "cache.digest_us", "cache.lookup_us", "netlist.parse_us",
	"resilience.admit_wait_us", "solver.new_us", "core.solve_us", "cache.put_us", "server.encode_us",
}

// pipeline holds the replay's own cache and admission controller, set up
// like bufferkitd's defaults.
type pipeline struct {
	cache *cache.Cache
	adm   *resilience.Controller
	opts  string
}

func newPipeline() *pipeline {
	slots := runtime.GOMAXPROCS(0)
	return &pipeline{
		cache: cache.New(4096),
		adm:   resilience.NewController(resilience.Config{Slots: slots, MaxQueue: 8 * slots, QueueTimeout: 10 * time.Second}),
		// bufferkitd's canonical option string for a default request.
		opts: fmt.Sprintf("algo=%s prune=transient backend=%s maxcost=0 stats=true",
			bufferkit.AlgoNew, bufferkit.BackendDefault.Resolve()),
	}
}

// handle runs one request through the layers. Traced ops charge the time
// since the previous boundary to a layer at every boundary; untraced ops
// time only the whole request, so the two give the tracing overhead.
func (p *pipeline) handle(op *replayOp) error {
	start := time.Now()
	last := start
	span := func(l int) {
		if op.traced {
			now := time.Now()
			op.layers[l] += now.Sub(last)
			last = now
		}
	}
	var req wireRequest
	if err := json.NewDecoder(bytes.NewReader(op.req.body)).Decode(&req); err != nil {
		return err
	}
	span(lDecode)
	key := cache.NewKey([]byte(req.Net), []byte(req.Library), p.opts)
	span(lDigest)
	v, ok := p.cache.Get(key)
	span(lLookup)
	var out bytes.Buffer
	if ok {
		resp := *v.(*wireResponse)
		resp.Cached = true
		if err := encode(&out, &resp); err != nil {
			return err
		}
		span(lEncode)
		op.resp, op.hit = &resp, true
		op.total = time.Since(start)
		return nil
	}
	net, err := bufferkit.ParseNet(strings.NewReader(req.Net))
	if err != nil {
		return err
	}
	lib, err := bufferkit.ParseLibrary(strings.NewReader(req.Library))
	if err != nil {
		return err
	}
	span(lParse)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.adm.Acquire(ctx); err != nil {
		return err
	}
	span(lAdmit)
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(net.Driver))
	if err != nil {
		p.adm.Release(1)
		return err
	}
	span(lNewSolver)
	runStart := time.Now()
	res, err := solver.Run(ctx, net.Tree)
	elapsed := time.Since(runStart)
	solver.Close()
	p.adm.Observe(elapsed)
	p.adm.Release(1)
	if err != nil {
		return err
	}
	span(lSolve)
	resp := &wireResponse{
		Net: net.Name, Algorithm: bufferkit.AlgoNew, Slack: res.Slack,
		Buffers: res.Placement.Count(), Cost: res.Placement.Cost(lib), Candidates: res.Candidates,
		Placement: placementNames(net.Tree, lib, res.Placement), ElapsedMs: ms(elapsed),
	}
	stats := res.Stats
	resp.Stats = &stats
	span(lEncode)
	p.cache.Put(key, resp)
	span(lPut)
	if err := encode(&out, resp); err != nil {
		return err
	}
	span(lEncode)
	op.resp = resp
	op.total = time.Since(start)
	return nil
}

// encode writes v the way bufferkitd's writeJSON does.
func encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// placementNames renders a placement as vertex name → buffer type name,
// as bufferkitd's response does.
func placementNames(t *bufferkit.Tree, lib bufferkit.Library, p bufferkit.Placement) map[string]string {
	out := make(map[string]string, p.Count())
	for v, b := range p {
		if b == bufferkit.NoBuffer {
			continue
		}
		name := t.Verts[v].Name
		if name == "" {
			name = fmt.Sprintf("v%d", v)
		}
		buf := lib[b].Name
		if buf == "" {
			buf = fmt.Sprintf("b%d", b)
		}
		out[name] = buf
	}
	return out
}

// replayResult is the traced in-process replay: the low-rate ops, whose
// layer self-times are compared with solve_p50_ms.low, and the high-rate
// ops, whose admission waits show queueing.
type replayResult struct {
	ops      []*replayOp
	low      []*replayOp
	high     []*replayOp
	overhead float64
}

// replay runs the request mix in process, open loop, at the low and the
// high ladder rate for d each, after warming the replay's own cache with
// the hot set.
func (st *mixState) replay(r *run, d time.Duration) (*replayResult, error) {
	p := newPipeline()
	res := &replayResult{}
	for i := range st.hot {
		op := &replayOp{req: &st.hot[i]}
		if err := p.handle(op); err != nil {
			return nil, err
		}
		res.ops = append(res.ops, op)
	}
	var err error
	if res.low, err = st.replayAt(p, ladder[0].rps, d); err != nil {
		return nil, err
	}
	if res.high, err = st.replayAt(p, ladder[len(ladder)-1].rps, d/2); err != nil {
		return nil, err
	}
	res.ops = append(append(res.ops, res.low...), res.high...)
	r.attempted += int64(len(res.ops))
	return res, nil
}

// replayAt replays Poisson arrivals at rps for d on conns workers; every
// other hit/miss pair is traced.
func (st *mixState) replayAt(p *pipeline, rps float64, d time.Duration) ([]*replayOp, error) {
	dues := arrivals(st.rng, rps, d)
	ops := make([]*replayOp, len(dues))
	for i := range ops {
		req, err := st.next()
		if err != nil {
			return nil, err
		}
		ops[i] = &replayOp{req: req, traced: (i/2)%2 == 1} // whole hit/miss pairs
	}
	queue := make(chan *replayOp, len(ops)) // sized to the number of sends
	errs := make(chan error, conns)         // one per worker
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range queue {
				if err := p.handle(op); err != nil {
					errs <- err // the others finish the queue
					return
				}
			}
		}()
	}
	start := time.Now()
	for i, op := range ops {
		if w := time.Until(start.Add(dues[i])); w > 0 {
			time.Sleep(w)
		}
		queue <- op
	}
	close(queue)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return ops, nil
}

// report sets the per-layer metrics of the replay: each layer's median
// self-time over the ops that enter it (the mean for admission, whose
// median is the uncontended fast path), the part of the HTTP p50 at the
// low rate that no layer accounts for, and the tracing overhead.
func (res *replayResult) report(r *run, httpP50 time.Duration) {
	var per [nLayers][]float64
	var sums []float64
	// Totals by [traced][hit], so hits are compared with hits and misses
	// with misses.
	var totals [2][2][]float64
	for _, op := range res.low {
		t, h := 0, 0
		if op.traced {
			t = 1
		}
		if op.hit {
			h = 1
		}
		totals[t][h] = append(totals[t][h], float64(op.total)/float64(time.Microsecond))
		if !op.traced {
			continue
		}
		var sum time.Duration
		for l, d := range op.layers {
			sum += d
			if op.hit && l >= lParse && l <= lPut {
				continue
			}
			per[l] = append(per[l], float64(d)/float64(time.Microsecond))
		}
		sums = append(sums, float64(sum)/float64(time.Microsecond))
	}
	for l, name := range layerNames {
		if l != lAdmit {
			r.set(name, median(per[l]))
		}
	}
	var wait, n float64
	for _, op := range res.high {
		if op.traced && !op.hit {
			wait += float64(op.layers[lAdmit]) / float64(time.Microsecond)
			n++
		}
	}
	r.set("resilience.admit_wait_us", wait/n)
	r.set("unattributed_us", float64(httpP50)/float64(time.Microsecond)-median(sums))
	// The mix is half hits, half misses: average the two classes' ratios.
	hits := median(totals[1][1]) / median(totals[0][1])
	misses := median(totals[1][0]) / median(totals[0][0])
	r.set("trace_overhead_frac", (hits+misses)/2-1)
}
