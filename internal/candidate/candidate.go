// Package candidate implements the (Q, C) candidate machinery shared by all
// buffer-insertion algorithms in this repository.
//
// A candidate for a subtree T_v is one way of buffering T_v, summarized by
// its slack Q (ps) and downstream capacitance C (fF) at v. Candidate α
// dominates α' when Q(α) ≥ Q(α') and C(α) ≤ C(α'). The set of nonredundant
// candidates, kept sorted, is strictly increasing in both Q and C.
//
// The package provides the candidate List — three packed parallel slabs
// (slacks, capacitances, decision references) — with the three van
// Ginneken operations on it (add-wire, merge, insert) and convex pruning:
// Graham's scan over the C-sorted list, which is the paper's key device.
// For every driving resistance R ≥ 0 the maximizer of Q − R·C lies on the
// concave majorant of the (C, Q) points. Every operation is a forward pass
// over the slabs; DESIGN.md §11 records why arrays replaced the paper's
// doubly-linked list.
//
// Allocation model: reconstruction decisions are index-linked records in a
// per-run Arena (see arena.go) rather than individually heap-allocated
// nodes, and arena-backed lists draw their headers and slab capacity from
// the same arena, so the whole run's memory releases in O(1) and a warm
// arena allocates nothing.
package candidate

// DecisionKind tags how a candidate came to be, for solution reconstruction.
type DecisionKind uint8

const (
	// DecSink is the base case: the candidate of a bare sink.
	DecSink DecisionKind = iota
	// DecBuffer records the insertion of one buffer at a vertex.
	DecBuffer
	// DecMerge joins the candidates of two sibling branches.
	DecMerge
)

// Decision is the read-only view of one reconstruction record, obtained
// from an Arena via Arena.Decision. Wire operations do not change
// placements, so they create no decisions; each candidate simply carries
// its decision reference through.
type Decision struct {
	Kind   DecisionKind
	Vertex int // sink vertex (DecSink) or buffer position (DecBuffer)
	Buffer int // library type index (DecBuffer only)
	A, B   DecRef
}

// WireDelay is the Elmore delay r·(c/2 + cdown) of a wire driving cdown.
// (Duplicated from the delay package to keep this package dependency-free;
// both are covered by tests.)
func WireDelay(r, c, cdown float64) float64 { return r * (c/2 + cdown) }

// Beta is a buffered candidate generated at a buffer position: inserting
// library type Buffer at Vertex yields slack Q and presents capacitance C
// upstream. Its reconstruction decision is created lazily: callers either
// set Dec directly, or set SrcDec (the decision of the unbuffered candidate
// the buffer was applied to) and let MergeBetas materialize the record only
// if the beta survives insertion — most betas are dominated immediately,
// and skipping their records is a measurable win in the O(n) inner loop.
type Beta struct {
	Q, C   float64
	Buffer int
	Vertex int
	SrcDec DecRef
	Dec    DecRef
}

// decision returns the beta's reconstruction record, materializing it in ar
// on first use. With no arena the nil reference is carried through.
func (b *Beta) decision(ar *Arena) DecRef {
	if b.Dec == 0 && ar != nil {
		b.Dec = ar.BufferDec(b.Vertex, b.Buffer, b.SrcDec)
	}
	return b.Dec
}

// NormalizeBetas sorts-stability is the caller's concern: betas must arrive
// in non-decreasing C order (the paper pre-sorts the library by input
// capacitance once). NormalizeBetas collapses them to a strictly increasing
// (C, Q) sequence: among equal-C betas only the max-Q one survives, and any
// beta dominated by a cheaper beta is dropped. O(b).
func NormalizeBetas(betas []Beta) []Beta {
	out := betas[:0]
	for _, b := range betas {
		if len(out) > 0 {
			top := &out[len(out)-1]
			if b.C < top.C {
				panic("candidate: NormalizeBetas input not sorted by C")
			}
			if b.C == top.C {
				if b.Q > top.Q {
					*top = b
				}
				continue
			}
			if b.Q <= top.Q {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// Pair is a plain (Q, C) value, used by tests and by Pairs.
type Pair struct {
	Q, C float64
}

// Hull is the concave majorant of a candidate list, materialized as packed
// parallel arrays so the engines' monotone hull walk — the paper's O(k+b)
// device — touches contiguous memory. Engines own one Hull per parity and
// reuse it across buffer positions; Reset keeps capacity, so warm runs fill
// hulls without allocating.
//
// A Hull carries no decision column: the hull builder scans O(k)
// candidates but the walk resolves decisions for at most b of them, so
// decisions are recovered on demand through List.HullDec.
type Hull struct {
	Q, C []float64
}

// Reset empties the hull, keeping capacity.
func (h *Hull) Reset() {
	h.Q, h.C = h.Q[:0], h.C[:0]
}

// Len returns the number of hull points.
func (h *Hull) Len() int { return len(h.Q) }

// leftTurn reports whether the middle point b lies strictly above the chord
// a→c in the (C, Q) plane, i.e. slope(a→b) > slope(b→c). Points violating
// this (Eq. 2 of the paper) are convex-pruned.
func leftTurn(aq, ac, bq, bc, cq, cc float64) bool {
	return (bq-aq)*(cc-bc) > (cq-bq)*(bc-ac)
}
