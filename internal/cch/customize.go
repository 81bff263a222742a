package cch

import (
	"fmt"
	"math"

	"repro/internal/ch"
	"repro/internal/graph"
)

// Config tunes one customization pass. The zero value selects basic
// (non-perfect) output. The order pipeline is not part of it: it is baked
// into the Preprocessed being customized.
type Config struct {
	// Workers is ignored: the triangle relaxation is one serial sweep.
	// It is kept only so the benchmark harness, which still names it,
	// compiles.
	Workers int
	// Perfect drops the pairs the perfect-customization post-pass marks
	// inert — both of whose arcs are +Inf or have a basic weight strictly
	// dominated by a path through an intermediate or upper triangle —
	// from the builder's own topology, so its queries, PHAST sweeps and
	// RPHAST selections skip them (dominated-pair pruning) over a private
	// CSR. Every customization runs the post-pass; without Perfect the
	// builder keeps the shared topology and only retains the inert mask.
	Perfect bool
}

// soaScratch is the pooled pair-space scratch of the triangle loops: the
// flat structure-of-arrays weights (16 bytes per pair touched in the hot
// loop) and the ends the pass reads back, which Pack gathers into a
// builder's slot columns. perfUp/perfDown and the inert mask are
// allocated on the first perfect customization only.
type soaScratch struct {
	ch.PairColumns
	perfUp, perfDown []float64
	inert            []bool
}

// Customize instantiates the preprocessed topology for one weight vector
// with the default Config: every slot starts at its cheapest original
// edge (+Inf when none), then one ascending sweep relaxes every lower
// triangle, resolving each arc's boundary original edges as it goes so
// tree sweeps record road edges as parents, and a descending perfect
// pass marks the pairs dead under this metric in the builder's inert
// mask (ch.NewJoint prunes by it). The result is exact for
// arbitrary weights — congestion of any magnitude, +Inf closures — and
// each call is independent, so a serving layer can customize in the
// background and swap atomically.
func (p *Preprocessed) Customize(weights []float64) *ch.TreeBuilder {
	return p.CustomizeWith(weights, Config{})
}

// CustomizeWith is Customize with perfect-pass control. Perfect
// additionally drops the pairs whose two arcs are both strictly
// dominated or +Inf from the builder's topology (the weights and ends of
// the pairs it keeps are untouched, so route sets are unchanged too).
//
// Both passes run on pooled pair-space scratch; each call allocates only
// what its builder owns — slot-order weights and arc ends, and the inert
// mask or, when perfect, its private topology — over the
// preprocessing's shared sweep topology: a superseded customization is
// freed with the last reference to its builder, so nothing has to track
// which queries still read it.
//
// Every weight must lie in [0, +Inf]. A negative or NaN weight panics
// before any work: shortest paths are undefined under negative weights,
// and the sweeps' branch-free minimum (ch.TreeBuilder.DistancesInto)
// orders labels by their bit patterns, which is the float order only on
// non-negative, non-NaN values. A serving provider recovers the panic
// and keeps its previous version.
func (p *Preprocessed) CustomizeWith(weights []float64, cfg Config) *ch.TreeBuilder {
	for e, w := range weights {
		if !(w >= 0) {
			panic(fmt.Sprintf("cch: edge %d has weight %v, want a value in [0, +Inf]", e, w))
		}
	}
	P := len(p.lo)
	sc := p.soa.Get().(*soaScratch)
	upW, downW, upEnds, downEnds := sc.UpW, sc.DownW, sc.UpEnds, sc.DownEnds

	// Metric init: cheapest original edge per directed slot, which is
	// also both of the slot's ends ({-1, -1} when no edge is finite).
	inf := math.Inf(1)
	for i := 0; i < P; i++ {
		wu, eu := inf, graph.EdgeID(-1)
		for _, e := range p.upEdges[p.upOff[i]:p.upOff[i+1]] {
			if weights[e] < wu {
				wu, eu = weights[e], e
			}
		}
		wd, ed := inf, graph.EdgeID(-1)
		for _, e := range p.downEdges[p.downOff[i]:p.downOff[i+1]] {
			if weights[e] < wd {
				wd, ed = weights[e], e
			}
		}
		upW[i], downW[i] = wu, wd
		upEnds[i], downEnds[i] = ch.ArcEnds{First: eu, Last: eu}, ch.ArcEnds{First: ed, Last: ed}
	}

	// Triangle relaxation in ascending pair order: a pair's lower
	// triangles reference only pairs with a strictly smaller index, so
	// each is final when read. The last strictly winning triangle is the
	// arc's decomposition, in path order: up (lo→hi) via z is lo→z (the
	// down arc of pair za) then z→hi (the up arc of zb); down (hi→lo) is
	// hi→z (the down arc of zb) then z→lo (the up arc of za). The arc
	// takes the first edge of its lower half and the last of its upper.
	for i := int32(0); i < int32(P); i++ {
		wu, wd := upW[i], downW[i]
		ku, kd := int32(-1), int32(-1)
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := downW[za] + upW[zb]; c < wu {
				wu, ku = c, k
			}
			if c := downW[zb] + upW[za]; c < wd {
				wd, kd = c, k
			}
		}
		upW[i], downW[i] = wu, wd
		if ku >= 0 {
			za, zb := p.triLoSide[ku], p.triHiSide[ku]
			upEnds[i] = ch.ArcEnds{First: downEnds[za].First, Last: upEnds[zb].Last}
		}
		if kd >= 0 {
			za, zb := p.triLoSide[kd], p.triHiSide[kd]
			downEnds[i] = ch.ArcEnds{First: downEnds[zb].First, Last: upEnds[za].Last}
		}
	}

	cols := sc.PairColumns
	var tb *ch.TreeBuilder
	if cfg.Perfect {
		// The private topology needs the mask before packing, so the
		// perfect pass runs on copies of the basic weights.
		if sc.perfUp == nil {
			sc.perfUp, sc.perfDown = make([]float64, P), make([]float64, P)
			sc.inert = make([]bool, P)
		}
		copy(sc.perfUp, upW)
		copy(sc.perfDown, downW)
		p.perfectPass(sc.perfUp, sc.perfDown)
		for i := range sc.inert {
			sc.inert[i] = ch.ArcDead(upW[i], sc.perfUp[i]) && ch.ArcDead(downW[i], sc.perfDown[i])
		}
		cols.Inert = sc.inert
		tb = p.top.Pack(&cols)
	} else {
		// Once packed, the builder holds the basic weights, so the
		// perfect pass runs in place on the scratch's.
		tb = p.top.Pack(&cols)
		p.perfectPass(upW, downW)
		tb.MarkInert(upW, downW)
	}
	p.soa.Put(sc)
	return tb
}

// perfectPass runs perfect customization in place on the pair-space
// weights up and down, starting from the basic ones: a descending sweep
// that, per lower triangle {z, a, b} of pair {a, b}, relaxes the four
// arcs incident to z through the pair's (already exact) arcs —
//
//	z→b ≤ z→a + a→b    b→z ≤ b→a + a→z
//	z→a ≤ z→b + b→a    a→z ≤ a→b + b→z
//
// Processing pairs in descending index order (descending rank of the
// lower endpoint), every pair's own arcs are exact shortest-path
// distances by the time its triangles are applied: all writes to a pair
// come from strictly higher groups, and the first-hop decomposition
// dist(a,b) = min over upward neighbours v of a of
// (basic w(a→v) + dist(v,b)) is realized by the triangle {a, v, b} (the
// upward neighbourhood of a is a clique, so that triangle exists and is
// applied while its upper pair is exact). The pass therefore leaves in
// up and down the true directed distances between every pair's
// endpoints — against which an arc whose basic weight is strictly
// greater is provably useless (every shortest up-down path consists of
// arcs whose weight equals their endpoints' distance; ch.ArcDead). A
// pair is inert when both of its arcs are, so the sweeps keep one CSR
// for both directions. Basic weights and arc ends are not changed:
// distances, trees and routes are byte-identical, only the work to
// compute them shrinks.
func (p *Preprocessed) perfectPass(up, down []float64) {
	for i := len(p.lo) - 1; i >= 0; i-- {
		pu, pd := up[i], down[i]
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := up[za] + pu; c < up[zb] {
				up[zb] = c
			}
			if c := pd + down[za]; c < down[zb] {
				down[zb] = c
			}
			if c := up[zb] + pd; c < up[za] {
				up[za] = c
			}
			if c := pu + down[zb]; c < down[za] {
				down[za] = c
			}
		}
	}
}
