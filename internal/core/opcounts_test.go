package core

import (
	"fmt"
	"os"
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/netlist"
	"bufferkit/internal/tree"
)

// opCounts pins one run's deterministic DP work: the Stats counters, the
// root frontier size and the exact slack.
type opCounts struct {
	positions, generated, kept, hullPruned int
	sumList, sumHull, maxList, decisions   int
	candidates                             int
	slack                                  float64
}

// TestOpCountsPinned asserts the exact operation counts and slack of fixed
// instances, with no tolerance. The counts are what the paper's O(bn²)
// argument is about; any change to them is a behaviour change of the
// engine and must be explained, not absorbed.
func TestOpCountsPinned(t *testing.T) {
	type instance struct {
		name string
		t    *tree.Tree
		opt  Options
	}
	var insts []instance
	for _, f := range []string{"line", "random12"} {
		fh, err := os.Open("../../testdata/" + f + ".net")
		if err != nil {
			t.Fatal(err)
		}
		net, err := netlist.ParseNet(fh)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{f, net.Tree, Options{Driver: net.Driver}})
	}
	ind, err := netgen.Industrial(337, 5729, 1)
	if err != nil {
		t.Fatal(err)
	}
	insts = append(insts, instance{"industrial337", ind, Options{Driver: delay.Driver{R: 0.2, K: 15}}})

	ran := 0
	for _, in := range insts {
		for _, b := range []int{8, 64} {
			lib := library.Generate(b)
			for _, prune := range []PruneMode{PruneTransient, PruneDestructive} {
				opt := in.opt
				opt.Prune = prune
				res, err := Insert(in.t, lib, opt)
				if err != nil {
					t.Fatal(err)
				}
				s := res.Stats
				got := opCounts{
					s.Positions, s.BetasGenerated, s.BetasKept, s.HullPruned,
					s.SumListLen, s.SumHullLen, s.MaxListLen, s.Decisions,
					res.Candidates, res.Slack,
				}
				key := fmt.Sprintf("%s/b%d/%s", in.name, b, prune)
				ran++
				want, ok := pinnedOpCounts[key]
				if !ok {
					t.Errorf("%s: no pinned counts; got %#v", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s:\n got %#v\nwant %#v", key, got, want)
				}
			}
		}
	}
	if ran != len(pinnedOpCounts) {
		t.Errorf("ran %d instances, %d pinned", ran, len(pinnedOpCounts))
	}
}

var pinnedOpCounts = map[string]opCounts{
	"line/b8/transient":             {positions: 24, generated: 192, kept: 192, hullPruned: 83, sumList: 382, sumHull: 299, maxList: 22, decisions: 193, candidates: 19, slack: 517.83984},
	"line/b8/destructive":           {positions: 24, generated: 192, kept: 192, hullPruned: 22, sumList: 321, sumHull: 299, maxList: 20, decisions: 193, candidates: 18, slack: 517.83984},
	"line/b64/transient":            {positions: 24, generated: 1536, kept: 1536, hullPruned: 832, sumList: 2154, sumHull: 1322, maxList: 107, decisions: 1537, candidates: 100, slack: 517.83984},
	"line/b64/destructive":          {positions: 24, generated: 1536, kept: 1536, hullPruned: 350, sumList: 1672, sumHull: 1322, maxList: 79, decisions: 1537, candidates: 76, slack: 517.83984},
	"random12/b8/transient":         {positions: 19, generated: 152, kept: 152, hullPruned: 34, sumList: 163, sumHull: 129, maxList: 19, decisions: 278, candidates: 14, slack: 830.246443235141},
	"random12/b8/destructive":       {positions: 19, generated: 152, kept: 152, hullPruned: 22, sumList: 149, sumHull: 127, maxList: 13, decisions: 273, candidates: 11, slack: 830.246443235141},
	"random12/b64/transient":        {positions: 19, generated: 1216, kept: 1216, hullPruned: 359, sumList: 1145, sumHull: 786, maxList: 133, decisions: 2054, candidates: 109, slack: 831.0752186130145},
	"random12/b64/destructive":      {positions: 19, generated: 1216, kept: 1216, hullPruned: 252, sumList: 1037, sumHull: 785, maxList: 91, decisions: 2015, candidates: 78, slack: 831.0752186130145},
	"industrial337/b8/transient":    {positions: 5729, generated: 45832, kept: 45821, hullPruned: 107941, sumList: 153499, sumHull: 45558, maxList: 301, decisions: 59468, candidates: 120, slack: 500.09083995941796},
	"industrial337/b8/destructive":  {positions: 5729, generated: 45832, kept: 45821, hullPruned: 17215, sumList: 60310, sumHull: 43095, maxList: 40, decisions: 50702, candidates: 18, slack: 491.5937171974021},
	"industrial337/b64/transient":   {positions: 5729, generated: 366656, kept: 366514, hullPruned: 363817, sumList: 607824, sumHull: 244007, maxList: 816, decisions: 414624, candidates: 350, slack: 501.7801661554829},
	"industrial337/b64/destructive": {positions: 5729, generated: 366656, kept: 366514, hullPruned: 117901, sumList: 359333, sumHull: 241432, maxList: 204, decisions: 394333, candidates: 71, slack: 495.6494400115745},
}
