package candidate

import (
	"math"
	"math/rand"
	"testing"
)

// refHull is the reference concave majorant: Graham's scan over
// pairs, written independently of the slab code.
func refHull(ps []Pair) []Pair {
	var h []Pair
	for _, p := range ps {
		for len(h) >= 2 && !leftTurn(h[len(h)-2].Q, h[len(h)-2].C, h[len(h)-1].Q, h[len(h)-1].C, p.Q, p.C) {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// TestListRandomInterleavings drives an arena-backed list through randomized
// interleavings of the full engine operation set — AddWire, Merge,
// InsertOne, MergeBetas, ConvexPruneInPlace — across repeated arena Reset
// cycles, and checks every step against the pair-level reference
// implementations. Decisions must survive the interleaving: the best
// candidate's lineage reconstructs to buffers the betas actually placed.
func TestListRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ar := NewArena()
	place := make([]int, 64)
	for iter := 0; iter < 300; iter++ {
		ar.Reset() // exercise slab rewind + reuse every iteration
		l := ar.NewList()
		for i, p := range randList(rng, 25).Pairs() {
			l.q, l.c, l.dec = append(l.q, p.Q), append(l.c, p.C), append(l.dec, ar.SinkDec(i))
		}
		for op := 0; op < 14; op++ {
			before := l.Pairs()
			var want []Pair
			switch rng.Intn(5) {
			case 0:
				r, c := rng.Float64()*2, rng.Float64()*20
				if rng.Intn(4) == 0 {
					r = 0 // exercise the shear-only fast path
				}
				l.AddWire(r, c)
				for _, p := range before {
					want = append(want, Pair{p.Q - WireDelay(r, c, p.C), p.C + c})
				}
				want = refNonredundant(want)
			case 1:
				q, c := rng.Float64()*400-200, rng.Float64()*200
				l.InsertOne(q, c, ar.SinkDec(9))
				want = refNonredundant(append(before, Pair{q, c}))
			case 2:
				o := ar.NewList()
				other := randList(rng, 10).Pairs()
				for i, p := range other {
					o.q, o.c, o.dec = append(o.q, p.Q), append(o.c, p.C), append(o.dec, ar.SinkDec(32+i))
				}
				m := Merge(l, o)
				l.Free()
				o.Free()
				l = m
				for _, x := range before {
					for _, y := range other {
						want = append(want, Pair{math.Min(x.Q, y.Q), x.C + y.C})
					}
				}
				want = refNonredundant(want)
			case 3:
				betas := make([]Beta, 1+rng.Intn(6))
				c := rng.Float64() * 10
				q := rng.Float64()*200 - 100
				for i := range betas {
					betas[i] = Beta{Q: q, C: c, Buffer: i % 3, Vertex: 40 + i}
					want = append(want, Pair{q, c})
					c += 0.01 + rng.Float64()*20
					q += 0.01 + rng.Float64()*40
				}
				l.MergeBetas(betas)
				want = refNonredundant(append(want, before...))
			default:
				want = refHull(before)
				if pruned := l.ConvexPruneInPlace(); pruned != len(before)-len(want) {
					t.Fatalf("iter %d op %d: pruned %d, want %d", iter, op, pruned, len(before)-len(want))
				}
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("iter %d op %d: %v", iter, op, err)
			}
			pairsEqual(t, l.Pairs(), want, "after op")
		}
		// The hull's decisions resolve to the candidates they came from.
		h := &Hull{}
		l.AppendHullInto(h)
		cursor := 0
		for p := range h.Q {
			var dec DecRef
			dec, cursor = l.HullDec(h, p, cursor)
			if l.dec[cursor] != dec || l.c[cursor] != h.C[p] || l.q[cursor] != h.Q[p] {
				t.Fatalf("iter %d: hull point %d resolved to list index %d", iter, p, cursor)
			}
		}
		// Reconstruction of the best candidate places only beta buffers.
		_, _, dec, ok := l.Best(rng.Float64() * 10)
		if !ok {
			t.Fatalf("iter %d: empty list", iter)
		}
		for i := range place {
			place[i] = -1
		}
		ar.Fill(dec, place)
		for v, b := range place {
			if b != -1 && (v < 40 || b != (v-40)%3) {
				t.Fatalf("iter %d: reconstructed buffer %d at vertex %d", iter, b, v)
			}
		}
	}
}

// TestPruneDominatedByProperty checks the cross-list dominance compaction
// against the pair-level reference: a candidate survives exactly when no
// frontier candidate has Q ≥ its Q at C ≤ its C.
func TestPruneDominatedByProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 300; iter++ {
		l := randList(rng, 30)
		f := randList(rng, 30)
		var want []Pair
		for _, p := range l.Pairs() {
			dominated := false
			for _, fp := range f.Pairs() {
				if fp.C <= p.C && fp.Q >= p.Q {
					dominated = true
				}
			}
			if !dominated {
				want = append(want, p)
			}
		}
		l.PruneDominatedBy(f)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pairsEqual(t, l.Pairs(), want, "PruneDominatedBy vs reference")
	}
}

// TestSoAArenaRecycleReuse: after one cold cycle, a
// build–wire–merge–beta–prune–fill cycle through a warm arena, freeing
// every list it takes, performs zero heap allocations.
func TestSoAArenaRecycleReuse(t *testing.T) {
	ar := NewArena()
	betas := make([]Beta, 1)
	p := make([]int, 3)
	run := func() float64 {
		ar.Reset()
		a := ar.NewSink(50, 1, 1)
		b := ar.NewSink(60, 2, 2)
		m := Merge(a, b)
		a.Free()
		b.Free()
		m.AddWire(0.1, 2)
		betas[0] = Beta{Q: 100, C: 0.5, Buffer: 1, Vertex: 0, SrcDec: m.DecAt(0), Dec: 0}
		m.MergeBetas(betas)
		m.ConvexPruneInPlace()
		p[0], p[1], p[2] = -1, -1, -1
		ar.Fill(m.DecAt(0), p)
		if p[0] != 1 {
			t.Fatalf("fill lost the buffer decision: %v", p)
		}
		q := m.At(0).Q
		m.Free()
		return q
	}
	want := run()
	allocs := testing.AllocsPerRun(100, func() {
		if got := run(); got != want {
			t.Fatalf("warm run diverged: %g != %g", got, want)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm arena cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestBestForRMatchesBruteForce: BestForR and Best return the maximizer of
// Q − r·C with ties broken toward the smaller C, the paper's best
// candidate.
func TestBestForRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		l := randList(rng, 30)
		for trial := 0; trial < 10; trial++ {
			r := rng.Float64() * 10
			if trial == 0 {
				// Equal objectives on the first two candidates: the tie
				// must go to the smaller C.
				p0, p1 := l.At(0), l.At(min(1, l.Len()-1))
				if p1.C > p0.C {
					r = (p1.Q - p0.Q) / (p1.C - p0.C)
				}
			}
			want := 0
			for i := 1; i < l.Len(); i++ {
				if l.q[i]-r*l.c[i] > l.q[want]-r*l.c[want] {
					want = i
				}
			}
			if got := l.BestForR(r); got != want {
				t.Fatalf("iter %d r=%g: BestForR = %d, want %d", iter, r, got, want)
			}
			if q, c, _, ok := l.Best(r); !ok || q != l.q[want] || c != l.c[want] {
				t.Fatalf("iter %d r=%g: Best = (%g, %g, %v), want %v", iter, r, q, c, ok, l.At(want))
			}
		}
	}
}
