package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bufferkit"
	"bufferkit/internal/experiments"
	"bufferkit/internal/lillis"
	"bufferkit/internal/netgen"
)

// paperNets is the paper's own workload: the three Table 1 industrial nets
// at full scale against generated libraries of b = 8, 16, 32 and 64 types,
// closed loop on one goroutine. One op is ParseNet of the net's text then
// Solver.Run on the warm solver for that b — the bufopt -net path without
// process start — and one pass is every (net, b) op once.
func paperNets(r *run) error {
	st, setup, err := timeSetup(3, func() (*paperState, error) { return newPaperState(r.seed) }, (*paperState).close)
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()

	// The warm-up pass fills the engine arenas and records the reference
	// slack every later pass must reproduce bit for bit.
	ref := st.newOps()
	if _, err := st.pass(ctx, r, ref, nil, false); err != nil {
		return err
	}

	if r.trace {
		return st.traced(ctx, r, ref)
	}
	var passTimes []float64
	var opTimes []time.Duration
	ops := st.newOps()
	for start := time.Now(); time.Since(start) < r.seconds || len(passTimes) < 3; {
		d, err := st.pass(ctx, r, ops, ref, false)
		if err != nil {
			return err
		}
		passTimes = append(passTimes, d.Seconds())
		for _, op := range ops {
			opTimes = append(opTimes, op.total)
		}
	}
	ms := durations(opTimes, time.Millisecond)
	r.set("setup_s", setup)
	r.set("throughput_per_s", float64(len(ops))/median(passTimes))
	r.set("latency_p50_ms", quantile(ms, 0.5))
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// paperState is the generated input of paper-nets: the net texts and one
// warm solver per library size.
type paperState struct {
	nets    [][]byte
	sizes   []int
	libs    []bufferkit.Library
	solvers []*bufferkit.Solver
}

func newPaperState(seed int64) (*paperState, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &paperState{sizes: experiments.LibSizes}
	for _, c := range experiments.Table1Cases {
		t, err := netgen.Industrial(c.M, c.N, rng.Int63())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		net := &bufferkit.Net{Name: fmt.Sprintf("industrial_%d_%d", c.M, c.N), Tree: t, Driver: experiments.Driver}
		if err := bufferkit.WriteNet(&buf, net); err != nil {
			return nil, err
		}
		st.nets = append(st.nets, buf.Bytes())
	}
	for _, b := range st.sizes {
		lib := bufferkit.GenerateLibrary(b)
		s, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(experiments.Driver))
		if err != nil {
			st.close()
			return nil, err
		}
		st.libs = append(st.libs, lib)
		st.solvers = append(st.solvers, s)
	}
	return st, nil
}

func (st *paperState) close() {
	for _, s := range st.solvers {
		s.Close()
	}
}

// paperOp is one (net, b) op of a pass and what it measured.
type paperOp struct {
	net, size           int
	total, parse, solve time.Duration
	res                 *bufferkit.NetResult
}

// newOps lists the ops of one pass: every net against every b.
func (st *paperState) newOps() []paperOp {
	ops := make([]paperOp, 0, len(st.nets)*len(st.sizes))
	for n := range st.nets {
		for b := range st.sizes {
			ops = append(ops, paperOp{net: n, size: b})
		}
	}
	return ops
}

// pass runs every op once and returns the summed op time. Traced passes
// also time the parse and solve layers separately. Each op's answer is
// checked right after it, outside the timed region; see check.
func (st *paperState) pass(ctx context.Context, r *run, ops, ref []paperOp, traced bool) (time.Duration, error) {
	var sum time.Duration
	for i := range ops {
		op := &ops[i]
		start := time.Now()
		net, err := bufferkit.ParseNet(bytes.NewReader(st.nets[op.net]))
		if err != nil {
			return 0, err
		}
		var parsed time.Time
		if traced {
			parsed = time.Now()
		}
		res, err := st.solvers[op.size].Run(ctx, net.Tree)
		if err != nil {
			return 0, err
		}
		op.total = time.Since(start)
		if traced {
			op.parse = parsed.Sub(start)
			op.solve = op.total - op.parse
		}
		op.res = res
		sum += op.total
		var want *bufferkit.NetResult
		if ref != nil {
			want = ref[i].res
		}
		st.check(r, op, net.Tree, want)
	}
	return sum, nil
}

// check re-evaluates an op's placement on tree with the exact Elmore
// oracle and, when want is given, requires slack bit-identical to the
// reference pass.
func (st *paperState) check(r *run, op *paperOp, tree *bufferkit.Tree, want *bufferkit.NetResult) {
	r.attempted++
	size := st.sizes[op.size]
	if want != nil && math.Float64bits(op.res.Slack) != math.Float64bits(want.Slack) {
		r.mismatch("paper-nets: net %d b=%d: slack %v differs from the reference pass's %v", op.net, size, op.res.Slack, want.Slack)
		return
	}
	chk, err := bufferkit.Evaluate(tree, st.libs[op.size], op.res.Placement, experiments.Driver)
	switch {
	case err != nil:
		r.mismatch("paper-nets: net %d b=%d: evaluate: %v", op.net, size, err)
	case math.Abs(chk.Slack-op.res.Slack) > 1e-6*math.Max(1, math.Abs(chk.Slack)):
		r.mismatch("paper-nets: net %d b=%d: oracle slack %v != reported %v", op.net, size, chk.Slack, op.res.Slack)
	case len(chk.PolarityViolations) > 0:
		r.mismatch("paper-nets: net %d b=%d: polarity violations at %v", op.net, size, chk.PolarityViolations)
	}
}

// traced is the per-layer run of paper-nets: the Lillis baseline on the
// smallest net, then traced passes interleaved with untraced ones so the
// cost of the extra span boundary shows as trace_overhead_frac.
func (st *paperState) traced(ctx context.Context, r *run, ref []paperOp) error {
	// Lillis O(b²n²) on the 337-sink net at the smallest and largest b.
	parsed, err := bufferkit.ParseNet(bytes.NewReader(st.nets[0]))
	if err != nil {
		return err
	}
	small := parsed.Tree
	lillisMs := map[int]float64{}
	for _, b := range []int{0, len(st.sizes) - 1} {
		var times []float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res, err := lillis.Insert(small, st.libs[b], experiments.Driver)
			if err != nil {
				return fmt.Errorf("lillis b=%d: %w", st.sizes[b], err)
			}
			times = append(times, float64(time.Since(start))/float64(time.Millisecond))
			r.attempted++
			core := ref[b].res.Slack
			if math.Abs(res.Slack-core) > 1e-6*math.Max(1, math.Abs(core)) {
				r.mismatch("paper-nets: lillis slack %v != core slack %v at b=%d", res.Slack, core, st.sizes[b])
			}
		}
		lillisMs[st.sizes[b]] = median(times)
		r.set(fmt.Sprintf("lillis.solve_ms.b%d", st.sizes[b]), lillisMs[st.sizes[b]])
	}

	var traced, untraced, parseMs []float64
	solveMs := make([][]float64, len(st.sizes))
	ops := st.newOps()
	for start := time.Now(); time.Since(start) < r.seconds || len(traced) < 2; {
		d, err := st.pass(ctx, r, ops, ref, false)
		if err != nil {
			return err
		}
		untraced = append(untraced, d.Seconds())

		d, err = st.pass(ctx, r, ops, ref, true)
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		var parse time.Duration
		solve := make([]time.Duration, len(st.sizes))
		for i, op := range ops {
			parse += op.parse
			solve[op.size] += op.solve
			if !op.res.Stats.SameCounters(ref[i].res.Stats) {
				r.problem("determinism: net %d b=%d: engine counts differ between passes", op.net, st.sizes[op.size])
			}
		}
		parseMs = append(parseMs, float64(parse)/float64(time.Millisecond)/float64(len(ops)))
		for b := range solve {
			solveMs[b] = append(solveMs[b], float64(solve[b])/float64(time.Millisecond)/float64(len(st.nets)))
		}
	}
	r.set("netlist.parse_ms", median(parseMs))
	for b, size := range st.sizes {
		r.set(fmt.Sprintf("core.solve_ms.b%d", size), median(solveMs[b]))
	}
	// The smallest net's solve time at b=64 against Lillis on the same net.
	var smallSolve []float64
	last := len(st.sizes) - 1
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if _, err := st.solvers[last].Run(ctx, small); err != nil {
			return err
		}
		smallSolve = append(smallSolve, float64(time.Since(start))/float64(time.Millisecond))
	}
	r.set(fmt.Sprintf("speedup_vs_lillis.b%d", st.sizes[last]), lillisMs[st.sizes[last]]/median(smallSolve))
	r.set("trace_overhead_frac", median(traced)/median(untraced)-1)

	counts := map[string]int64{}
	for b, size := range st.sizes {
		var sum bufferkit.Stats
		arena := 0
		for _, op := range ref {
			if op.size != b {
				continue
			}
			s := op.res.Stats
			sum.Positions += s.Positions
			sum.BetasGenerated += s.BetasGenerated
			sum.BetasKept += s.BetasKept
			sum.HullPruned += s.HullPruned
			sum.SumListLen += s.SumListLen
			sum.SumHullLen += s.SumHullLen
			sum.MaxListLen = max(sum.MaxListLen, s.MaxListLen)
			sum.Decisions += s.Decisions
			arena = max(arena, s.ArenaBytes)
		}
		sfx := fmt.Sprintf(".b%d", size)
		if b == 0 {
			counts["core.positions"] = int64(sum.Positions)
		}
		counts["core.candidates_generated"+sfx] = int64(sum.BetasGenerated)
		counts["core.candidates_kept"+sfx] = int64(sum.BetasKept)
		counts["core.hull_pruned"+sfx] = int64(sum.HullPruned)
		counts["core.sum_list_len"+sfx] = int64(sum.SumListLen)
		counts["core.sum_hull_len"+sfx] = int64(sum.SumHullLen)
		counts["core.max_list_len"+sfx] = int64(sum.MaxListLen)
		counts["core.decisions"+sfx] = int64(sum.Decisions)
		r.set("core.arena_mb"+sfx, float64(arena)/(1<<20))
	}
	for name, v := range counts {
		r.set(name, float64(v))
	}
	return r.checkCounts(counts)
}
