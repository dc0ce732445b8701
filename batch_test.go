package bufferkit_test

import (
	"errors"
	"math"
	"testing"

	"bufferkit"
	"bufferkit/internal/netgen"
)

// batchNets builds n deterministic random nets of varying shapes.
func batchNets(n int) []*bufferkit.Tree {
	nets := make([]*bufferkit.Tree, n)
	for i := range nets {
		nets[i] = bufferkit.RandomNet(bufferkit.NetOpts{
			Sinks: 4 + i%13,
			Seed:  int64(i) * 31,
		})
	}
	return nets
}

// batchSolver builds a Solver for batch runs on lib with driver d.
func batchSolver(t testing.TB, lib bufferkit.Library, d bufferkit.Driver, workers int) *bufferkit.Solver {
	t.Helper()
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(lib),
		bufferkit.WithDriver(d),
		bufferkit.WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunBatchMatchesSequential is the batch correctness property: with
// any worker count, RunBatch must produce results byte-identical to a
// sequential Run per net — same index, slack bits, placement and stats.
func TestRunBatchMatchesSequential(t *testing.T) {
	nets := batchNets(72)
	lib := bufferkit.GenerateLibrary(12)
	d := bufferkit.Driver{R: 0.25, K: 10}

	want := make([]*bufferkit.NetResult, len(nets))
	for i, tr := range nets {
		want[i] = solve(t, tr, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
	}

	for _, workers := range []int{1, 3, 8} {
		got, err := batchSolver(t, lib, d, workers).RunBatch(ctxBG(), nets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(nets) {
			t.Fatalf("workers=%d: %d results for %d nets", workers, len(got), len(nets))
		}
		for i := range got {
			if got[i] == nil {
				t.Fatalf("workers=%d net %d: nil result", workers, i)
			}
			if got[i].Index != i {
				t.Fatalf("workers=%d net %d: index %d", workers, i, got[i].Index)
			}
			equalBits(t, "batch", got[i].Slack, want[i].Slack)
			equalPlacement(t, "batch", got[i].Placement, want[i].Placement)
			if got[i].Candidates != want[i].Candidates || !got[i].Stats.SameCounters(want[i].Stats) {
				t.Fatalf("workers=%d net %d: stats diverged", workers, i)
			}
		}
	}
}

// TestRunBatchConcurrent exercises the worker pool with maximum overlap
// (more nets than workers, all workers busy); run with -race this is the
// batch data-race test required for the concurrent arena/engine design.
func TestRunBatchConcurrent(t *testing.T) {
	nets := batchNets(96)
	s := batchSolver(t, bufferkit.GenerateLibrary(8), bufferkit.Driver{R: 0.3, K: 5}, 8)
	for round := 0; round < 3; round++ {
		res, err := s.RunBatch(ctxBG(), nets)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r == nil || r.Placement.Count() == 0 && r.Slack == 0 {
				t.Fatalf("round %d net %d: implausible result %+v", round, i, r)
			}
		}
	}
}

// TestRunBatchPartialFailure: failed nets surface in a *BatchError while
// healthy nets still return results.
func TestRunBatchPartialFailure(t *testing.T) {
	nets := batchNets(6)
	// Net 2 demands negative polarity, which a buffer-only library cannot
	// serve.
	bad := bufferkit.NewTreeBuilder()
	v := bad.AddBufferPos(0, 1, 1)
	bad.AddSinkPol(v, 1, 1, 2, 100, bufferkit.Negative)
	nets[2] = bad.MustBuild()

	res, err := batchSolver(t, bufferkit.GenerateLibrary(4), bufferkit.Driver{}, 2).RunBatch(ctxBG(), nets)
	be, ok := err.(*bufferkit.BatchError)
	if !ok {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(be.Errs) != 1 || be.Errs[2] == nil {
		t.Fatalf("Errs = %v, want exactly net 2", be.Errs)
	}
	if res[2] != nil {
		t.Fatal("failed net produced a result")
	}
	for i, r := range res {
		if i != 2 && r == nil {
			t.Fatalf("healthy net %d lost its result", i)
		}
	}
}

func TestRunBatchDriverMismatch(t *testing.T) {
	nets := batchNets(3)
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(4)),
		bufferkit.WithDrivers(make([]bufferkit.Driver, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	var verr *bufferkit.ValidationError
	if _, err := s.RunBatch(ctxBG(), nets); !errors.As(err, &verr) || verr.Field != "drivers" {
		t.Fatalf("err = %v, want a drivers ValidationError for mismatched per-net drivers", err)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	res, err := batchSolver(t, bufferkit.GenerateLibrary(4), bufferkit.Driver{}, 0).RunBatch(ctxBG(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestWarmEngineZeroAllocs is the tentpole's acceptance assertion: once an
// Engine has run a net, re-running the same-shaped instance performs zero
// steady-state heap allocations — decisions, candidate nodes, list headers
// and every scratch buffer come from memory retained across runs.
func TestWarmEngineZeroAllocs(t *testing.T) {
	tr, err := netgen.Industrial(40, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	lib := bufferkit.GenerateLibrary(16)
	opt := bufferkit.Options{Driver: bufferkit.Driver{R: 0.2, K: 15}}

	eng := bufferkit.NewEngine()
	if err := eng.Reset(tr, lib, opt); err != nil {
		t.Fatal(err)
	}
	res := &bufferkit.Result{}
	if err := eng.Run(res); err != nil {
		t.Fatal(err)
	}
	cold := solve(t, tr, bufferkit.WithLibrary(lib), bufferkit.WithDriver(opt.Driver))
	if math.Float64bits(res.Slack) != math.Float64bits(cold.Slack) {
		t.Fatalf("warm %v != cold %v", res.Slack, cold.Slack)
	}

	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm Engine.Run allocates %.1f objects per run, want 0", allocs)
	}

	// Reset to the same instance must stay allocation-free too.
	allocs = testing.AllocsPerRun(20, func() {
		if err := eng.Reset(tr, lib, opt); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm Reset+Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestWarmEngineAcrossShapes: an engine hopping between differently shaped
// nets still produces exact results (scratch resizing is correct).
func TestWarmEngineAcrossShapes(t *testing.T) {
	lib := bufferkit.GenerateLibrary(8)
	d := bufferkit.Driver{R: 0.3}
	eng := bufferkit.NewEngine()
	res := &bufferkit.Result{}
	for i, tr := range batchNets(24) {
		if err := eng.Reset(tr, lib, bufferkit.Options{Driver: d}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
		want := solve(t, tr, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
		if math.Float64bits(res.Slack) != math.Float64bits(want.Slack) {
			t.Fatalf("net %d: warm engine %v != fresh %v", i, res.Slack, want.Slack)
		}
		chk, err := bufferkit.Evaluate(tr, lib, res.Placement, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(chk.Slack-res.Slack) > 1e-6 {
			t.Fatalf("net %d: oracle %g != reported %g", i, chk.Slack, res.Slack)
		}
	}
}

func TestEngineRunBeforeReset(t *testing.T) {
	if err := bufferkit.NewEngine().Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run before Reset must fail")
	}
}

// TestEngineFailedResetBlocksRun: a failed Reset must not leave the
// previous instance runnable — Run after it must error, not silently
// report the stale net's result.
func TestEngineFailedResetBlocksRun(t *testing.T) {
	eng := bufferkit.NewEngine()
	good := bufferkit.TwoPinNet(2000, 4, 10, 1000, bufferkit.PaperWire())
	if err := eng.Reset(good, bufferkit.GenerateLibrary(4), bufferkit.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(&bufferkit.Result{}); err != nil {
		t.Fatal(err)
	}

	bad := bufferkit.NewTreeBuilder()
	v := bad.AddBufferPos(0, 1, 1)
	bad.AddSinkPol(v, 1, 1, 2, 100, bufferkit.Negative)
	if err := eng.Reset(bad.MustBuild(), bufferkit.GenerateLibrary(4), bufferkit.Options{}); err == nil {
		t.Fatal("Reset accepted an infeasible instance")
	}
	if err := eng.Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run after failed Reset reported a stale result")
	}
	// Release also de-arms the engine.
	if err := eng.Reset(good, bufferkit.GenerateLibrary(4), bufferkit.Options{}); err != nil {
		t.Fatal(err)
	}
	eng.Release()
	if err := eng.Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run after Release must fail until the next Reset")
	}
}
