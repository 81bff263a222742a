package cch

import (
	"fmt"
	"math"

	"repro/internal/ch"
)

// Config tunes one customization pass. The zero value selects basic
// (non-perfect) output. The order pipeline is not part of it: it is baked
// into the Preprocessed being customized.
type Config struct {
	// Workers is ignored: the triangle relaxation is one serial sweep.
	// It is kept only so the benchmark harness, which still names it,
	// compiles.
	Workers int
	// Perfect enables the descending perfect-customization post-pass:
	// arcs whose basic weight is strictly dominated by a path through an
	// intermediate or upper triangle are marked inert, and queries,
	// PHAST sweeps and RPHAST selections skip them. Roughly doubles
	// customization cost; shrinks every subsequent sweep.
	Perfect bool
}

// soaScratch holds the flat structure-of-arrays weight vectors the
// triangle loops run over: 16 bytes per pair touched in the hot loop
// instead of two 40-byte ch.Arc records. perfUp/perfDown are allocated
// on first perfect customization only.
type soaScratch struct {
	upW, downW       []float64
	perfUp, perfDown []float64
}

// Customize instantiates the preprocessed topology for one weight vector
// with the default Config: every slot starts at its cheapest original
// edge (+Inf when none), then one ascending sweep relaxes every lower
// triangle, recording winning decompositions so shortcut arcs unpack to
// original edge sequences. The result is exact for arbitrary weights —
// congestion of any magnitude, +Inf closures — and each call is
// independent, so a serving layer can customize in the background and
// swap atomically.
func (p *Preprocessed) Customize(weights []float64) ch.Hierarchy {
	return p.CustomizeWith(weights, Config{})
}

// CustomizeWith is Customize with perfect-pass control. Perfect
// additionally marks strictly dominated arcs inert (weights and unpacking
// untouched, so route sets are unchanged too).
//
// Each call allocates the arc array (and packed weights, and inert mask)
// its runtime owns and attaches them to the preprocessing's metric-free
// runtime: a superseded customization is freed with the last reference
// to its runtime, so nothing has to track which queries still read it.
//
// Every weight must lie in [0, +Inf]. A negative or NaN weight panics
// before any work: shortest paths are undefined under negative weights,
// and the sweeps' branch-free minimum (ch.TreeBuilder.DistancesInto)
// orders labels by their bit patterns, which is the float order only on
// non-negative, non-NaN values. A serving provider recovers the panic
// and keeps its previous version.
func (p *Preprocessed) CustomizeWith(weights []float64, cfg Config) ch.Hierarchy {
	for e, w := range weights {
		if !(w >= 0) {
			panic(fmt.Sprintf("cch: edge %d has weight %v, want a value in [0, +Inf]", e, w))
		}
	}
	P := len(p.lo)
	arcs := make([]ch.Arc, 2*P)
	sc := p.soa.Get().(*soaScratch)
	upW, downW := sc.upW, sc.downW

	// Metric init: cheapest original edge per directed slot. Weights live
	// in the SoA vectors until the pack step; arcs carry heads and
	// unpacking info from the start.
	inf := math.Inf(1)
	for i := 0; i < P; i++ {
		up := ch.Arc{To: p.hi[i], Weight: inf, Orig: -1, Skip1: -1, Skip2: -1}
		wu := inf
		for _, e := range p.upEdges[p.upOff[i]:p.upOff[i+1]] {
			if weights[e] < wu {
				wu = weights[e]
				up.Orig = e
			}
		}
		down := ch.Arc{To: p.lo[i], Weight: inf, Orig: -1, Skip1: -1, Skip2: -1}
		wd := inf
		for _, e := range p.downEdges[p.downOff[i]:p.downOff[i+1]] {
			if weights[e] < wd {
				wd = weights[e]
				down.Orig = e
			}
		}
		upW[i], downW[i] = wu, wd
		arcs[2*i], arcs[2*i+1] = up, down
	}

	// Triangle relaxation in ascending pair order: a pair's lower
	// triangles reference only pairs with a strictly smaller index, so
	// each is final when read. Skip arcs record the winning decomposition
	// in path order: up (lo→hi) via z is lo→z then z→hi; down (hi→lo) is
	// hi→z then z→lo. The up arc of pair q is arc 2q, the down arc 2q+1.
	for i := int32(0); i < int32(P); i++ {
		up, down := &arcs[2*i], &arcs[2*i+1]
		wu, wd := upW[i], downW[i]
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := downW[za] + upW[zb]; c < wu {
				wu = c
				up.Orig = -1
				up.Skip1, up.Skip2 = 2*za+1, 2*zb
			}
			if c := downW[zb] + upW[za]; c < wd {
				wd = c
				down.Orig = -1
				down.Skip1, down.Skip2 = 2*zb+1, 2*za
			}
		}
		upW[i], downW[i] = wu, wd
	}

	// Pack the final weights back into the arc records and the packed
	// weight view the relax loops read.
	arcW := make([]float64, 2*P)
	for i := 0; i < P; i++ {
		arcs[2*i].Weight = upW[i]
		arcs[2*i+1].Weight = downW[i]
		arcW[2*i] = upW[i]
		arcW[2*i+1] = downW[i]
	}

	var inert []bool
	if cfg.Perfect {
		inert = p.perfectPass(sc)
	}

	p.soa.Put(sc)
	return p.rt.WithArcsInert(arcs, arcW, inert)
}

// perfectPass runs perfect customization: a descending sweep that, per
// lower triangle {z, a, b} of pair {a, b}, relaxes the four arcs
// incident to z through the pair's (already exact) arcs —
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
// applied while its upper pair is exact). The pass therefore computes,
// in perfUp/perfDown, the true directed distances between every pair's
// endpoints — against which an arc whose basic weight is strictly
// greater is provably useless (every shortest up-down path consists of
// arcs whose weight equals their endpoints' distance) and marked inert.
// Basic weights and unpacking stay untouched: distances, routes and
// unpackings are byte-identical, only the work to compute them shrinks.
func (p *Preprocessed) perfectPass(sc *soaScratch) []bool {
	P := len(p.lo)
	if sc.perfUp == nil {
		sc.perfUp = make([]float64, P)
		sc.perfDown = make([]float64, P)
	}
	perfUp, perfDown := sc.perfUp, sc.perfDown
	copy(perfUp, sc.upW[:P])
	copy(perfDown, sc.downW[:P])
	for i := P - 1; i >= 0; i-- {
		pu, pd := perfUp[i], perfDown[i]
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := perfUp[za] + pu; c < perfUp[zb] {
				perfUp[zb] = c
			}
			if c := pd + perfDown[za]; c < perfDown[zb] {
				perfDown[zb] = c
			}
			if c := perfUp[zb] + pd; c < perfUp[za] {
				perfUp[za] = c
			}
			if c := pu + perfDown[zb]; c < perfDown[za] {
				perfDown[za] = c
			}
		}
	}
	// Strict domination keeps equal-weight arcs alive, which is what
	// preserves tie-breaking (and with it byte-identical parents) in
	// every downstream sweep. +Inf slots — topology pairs the metric
	// gives no realizing path — can never win a relaxation either, so
	// perfect mode retires them from the sweeps too.
	inert := make([]bool, 2*P)
	upW, downW := sc.upW, sc.downW
	for i := 0; i < P; i++ {
		inert[2*i] = perfUp[i] < upW[i] || math.IsInf(upW[i], 1)
		inert[2*i+1] = perfDown[i] < downW[i] || math.IsInf(downW[i], 1)
	}
	return inert
}
