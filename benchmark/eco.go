package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"bufferkit"
	"bufferkit/internal/core"
	"bufferkit/internal/experiments"
)

const (
	// ecoDeltas is the length of each net's seeded delta sequence, which
	// the run cycles through. Deltas set absolute values, so cycling keeps
	// the nets within the same range.
	ecoDeltas = 4096
	// ecoCheckEvery is the mean spacing of the resolves re-checked against a
	// cold run; which ones is drawn from the seed.
	ecoCheckEvery = 256
	// ecoCountOps is the fixed prefix of resolves whose session counts the
	// determinism gate compares, independent of how fast the run goes.
	ecoCountOps = 8192
	// ecoBlock is the number of resolves per timed block: the rate is
	// ecoBlock over the median block time.
	ecoBlock = 1024
)

// ecoSessions re-solves the two bushy nets of the ECO series (ternary
// depth 6 and quaternary depth 5, b = 16) through Session after a seeded
// sequence of single deltas — sink RAT and load, edge RC, and penalty
// vectors touching a few sites, the chip allocator's pattern. Each resolve
// recomputes one leaf-to-root path, so per-run fixed costs dominate.
func ecoSessions(r *run) error {
	st, setup, err := timeSetup(3, func() (*ecoState, error) { return newEcoState(r.seed) }, (*ecoState).close)
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()
	pick := rand.New(rand.NewSource(r.seed ^ 0x6563))
	cold := core.NewEngine()
	defer cold.Release()

	// The untraced run keeps a histogram of op times for the p50 and the
	// time of every block of ecoBlock ops for the rate, never one sample
	// per op, so its memory does not grow with the op count.
	var lat histogram
	var blocks []float64
	var block time.Duration
	var patchT, resolveT, traced, untraced, coldT []time.Duration
	var recomputed int64
	var rebuilds int
	for i := 0; time.Since(st.started) < r.seconds || i < ecoCountOps; i++ {
		n := st.nets[i%len(st.nets)]
		d := n.next()
		// Traced runs alternate blocks of ops with and without the extra
		// span boundary between Patch and Resolve.
		split := r.trace && (i/ecoBlock)%2 == 1
		start := time.Now()
		n.sess.Patch(d)
		var patched time.Time
		if split {
			patched = time.Now()
		}
		res, err := n.sess.Resolve(ctx)
		end := time.Now()
		if err != nil {
			return err
		}
		r.attempted++
		switch op := end.Sub(start); {
		case split:
			patchT = append(patchT, patched.Sub(start))
			resolveT = append(resolveT, end.Sub(patched))
			traced = append(traced, op)
		case r.trace:
			untraced = append(untraced, op)
		default:
			lat.add(op)
			if block += op; (i+1)%ecoBlock == 0 {
				blocks = append(blocks, block.Seconds())
				block = 0
			}
		}
		if i < ecoCountOps {
			recomputed += int64(n.sess.Stats().LastRecomputed)
		}
		if i == ecoCountOps-1 {
			for _, m := range st.nets {
				rebuilds += m.sess.Stats().FullRebuilds
			}
		}
		if pick.Intn(ecoCheckEvery) == 0 {
			d, err := st.checkCold(r, cold, n, res)
			if err != nil {
				return err
			}
			coldT = append(coldT, d)
		}
	}

	if !r.trace {
		r.set("setup_s", setup)
		r.set("throughput_per_s", ecoBlock/median(blocks))
		r.set("latency_p50_ms", lat.quantile(0.5, time.Millisecond))
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", rss)
		return nil
	}
	resolves := durations(resolveT, time.Microsecond)
	resolveUs := median(resolves)
	r.set("session.resolve_p99_us", quantile(resolves, 0.99))
	r.set("session.patch_us", median(durations(patchT, time.Microsecond)))
	r.set("session.resolve_us", resolveUs)
	r.set("session.delta_speedup", median(durations(coldT, time.Microsecond))/resolveUs)
	r.set("trace_overhead_frac", median(durations(traced, time.Microsecond))/median(durations(untraced, time.Microsecond))-1)
	counts := map[string]int64{
		"session.recomputed_vertices": recomputed,
		"session.full_rebuilds":       int64(rebuilds),
	}
	for name, v := range counts {
		r.set(name, float64(v))
	}
	return r.checkCounts(counts)
}

// ecoState is the generated input of eco-sessions: one open session per
// net with its delta sequence.
type ecoState struct {
	lib     bufferkit.Library
	solver  *bufferkit.Solver
	nets    []*ecoNet
	started time.Time
}

// ecoNet is one session, the benchmark's own copy of the penalty vector it
// has set, and the net's seeded delta sequence.
type ecoNet struct {
	sess   *bufferkit.Session
	pen    []float64
	deltas []ecoDelta
	pos    int
}

// ecoDelta is one pregenerated delta. Penalty deltas name the sites they
// change; the full vector is assembled when the delta is applied.
type ecoDelta struct {
	d     bufferkit.Delta
	sites []int
	vals  []float64
}

func newEcoState(seed int64) (*ecoState, error) {
	st := &ecoState{}
	cases := experiments.ECOBenchCases()
	st.lib = cases[0].Lib
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(st.lib), bufferkit.WithDriver(experiments.Driver))
	if err != nil {
		return nil, err
	}
	st.solver = s
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for _, c := range cases {
		sess, err := s.NewSession(c.Tree)
		if err != nil {
			st.close()
			return nil, err
		}
		n := &ecoNet{sess: sess, pen: make([]float64, c.Tree.Len())}
		st.nets = append(st.nets, n)
		if _, err := sess.Resolve(ctx); err != nil { // the first resolve is full
			st.close()
			return nil, err
		}
		n.deltas = genDeltas(rng, c.Tree)
	}
	st.started = time.Now()
	return st, nil
}

// genDeltas draws a delta sequence for t: a third each of sink RAT/load,
// edge RC and penalty deltas touching three buffer sites.
func genDeltas(rng *rand.Rand, t *bufferkit.Tree) []ecoDelta {
	sinks, sites := t.Sinks(), t.BufferPositions()
	out := make([]ecoDelta, ecoDeltas)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			v := sinks[rng.Intn(len(sinks))]
			out[i].d = bufferkit.SinkDelta{Vertex: v,
				RAT: t.Verts[v].RAT + 200*(rng.Float64()-0.5),
				Cap: t.Verts[v].Cap * (0.75 + 0.5*rng.Float64())}
		case 1:
			v := 1 + rng.Intn(t.Len()-1)
			out[i].d = bufferkit.EdgeDelta{Vertex: v,
				R: t.Verts[v].EdgeR * (0.8 + 0.4*rng.Float64()),
				C: t.Verts[v].EdgeC * (0.8 + 0.4*rng.Float64())}
		default:
			for k := 0; k < 3; k++ {
				out[i].sites = append(out[i].sites, sites[rng.Intn(len(sites))])
				out[i].vals = append(out[i].vals, 20*rng.Float64())
			}
		}
	}
	return out
}

// next returns the net's next delta, applying a penalty delta's site
// changes to the benchmark's copy of the vector first.
func (n *ecoNet) next() bufferkit.Delta {
	e := &n.deltas[n.pos%len(n.deltas)]
	n.pos++
	if e.d != nil {
		return e.d
	}
	for k, v := range e.sites {
		n.pen[v] = e.vals[k]
	}
	return bufferkit.PenaltyDelta{Penalty: n.pen}
}

// checkCold re-solves the session's patched tree from scratch with the same
// penalty vector and requires the delta resolve's result bit for bit. It
// returns the cold run's time.
func (st *ecoState) checkCold(r *run, eng *core.Engine, n *ecoNet, got *bufferkit.NetResult) (time.Duration, error) {
	start := time.Now()
	opt := core.Options{Driver: experiments.Driver, SitePenalty: n.pen}
	if err := eng.Reset(n.sess.Tree(), st.lib, opt); err != nil {
		return 0, err
	}
	var want core.Result
	if err := eng.Run(&want); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if math.Float64bits(want.Slack) != math.Float64bits(got.Slack) || !slices.Equal(want.Placement, got.Placement) {
		r.mismatch("eco-sessions: delta resolve slack %v differs from cold run's %v", got.Slack, want.Slack)
	}
	return d, nil
}

func (st *ecoState) close() {
	for _, n := range st.nets {
		n.sess.Close()
	}
	st.solver.Close()
}
