package core

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// TestQueryStatsMonotoneAcrossPublishes pins the satellite fix for the
// counters that lied across publishes: each customized runtime starts
// its QueryStats at zero, so reading them off the current view alone
// made ElimQueries/ElimTruncated/ElimAscentNodes collapse on every view
// swap. The provider now folds the outgoing runtime's counters into its
// own accumulators at swap time; this test publishes mid-query-stream
// across ≥3 swaps and asserts the reported counters only ever grow and
// account for every query issued.
func TestQueryStatsMonotoneAcrossPublishes(t *testing.T) {
	withAutoFraction(t, 1)
	g := testCity(t)
	st := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: st, TreeBackend: TreeCHAuto})

	pairs := [][2]int{{0, 143}, {13, 130}, {5, 138}, {60, 83}, {2, 141}}
	query := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			if _, err := pl.Alternatives(graph.NodeID(p[0]), graph.NodeID(p[1])); err != nil {
				t.Fatalf("query %v: %v", p, err)
			}
		}
	}

	query(len(pairs))
	prev := pl.HierarchyStatus()
	if prev.LastQueryEngine != "elimtree" {
		t.Skipf("elimination-tree engine not serving (engine %q)", prev.LastQueryEngine)
	}
	if prev.ElimQueries == 0 {
		t.Fatalf("no elim queries counted before first swap")
	}
	if !prev.LastRestricted {
		t.Fatalf("queries ran full sweeps; the restricted path went uncounted")
	}

	seq := traffic.NewSequence(g, traffic.DefaultModel(11), 0)
	const swaps = 4
	for i := 0; i < swaps; i++ {
		seq.Advance(st)
		pl.prov.refreshSync()
		if got := pl.prov.servingVersion(); got != st.Version() {
			t.Fatalf("swap %d: serving version %d, want %d", i, got, st.Version())
		}
		query(len(pairs))
		cur := pl.HierarchyStatus()
		if cur.ElimQueries < prev.ElimQueries || cur.ElimTruncated < prev.ElimTruncated || cur.ElimAscentNodes < prev.ElimAscentNodes {
			t.Fatalf("swap %d: counters went backwards: %+v -> %+v", i, prev, cur)
		}
		if cur.ElimQueries == prev.ElimQueries {
			t.Fatalf("swap %d: queries after the swap not counted (stuck at %d)", i, cur.ElimQueries)
		}
		prev = cur
	}
	// Every query ran ≥1 elimination-tree distance computation, and none
	// may have been dropped by the folds: with 5 pairs queried before the
	// first swap and after each of 4 swaps, the final count must cover at
	// least those 25 planner calls.
	if prev.ElimQueries < uint64(len(pairs)*(swaps+1)) {
		t.Fatalf("final ElimQueries = %d, want ≥ %d (folds dropped queries)", prev.ElimQueries, len(pairs)*(swaps+1))
	}
}

// TestQueryStatsMonotoneUnderRacingSwaps is the same pin under -race and
// live concurrency: a query stream, a publish/refresh stream, and a
// status reader run together; every status read must observe
// monotonically non-decreasing counters.
func TestQueryStatsMonotoneUnderRacingSwaps(t *testing.T) {
	withAutoFraction(t, 1)
	g := testCity(t)
	st := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: st, TreeBackend: TreeCHAuto})
	if pl.HierarchyStatus().LastQueryEngine == "bidij" {
		t.Skip("elimination-tree engine not serving")
	}
	// Seed some counted queries before the racing phase so the monotone
	// floor is non-trivial even if the swap stream finishes first.
	for _, p := range [][2]int{{0, 143}, {13, 130}} {
		if _, err := pl.Alternatives(graph.NodeID(p[0]), graph.NodeID(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	floor := pl.HierarchyStatus()
	if floor.ElimQueries == 0 {
		t.Fatalf("seed queries not counted")
	}
	if !floor.LastRestricted {
		t.Fatalf("seed queries ran full sweeps; the restricted path went uncounted")
	}

	seq := traffic.NewSequence(g, traffic.DefaultModel(13), 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // query stream
		defer wg.Done()
		pairs := [][2]int{{0, 143}, {13, 130}, {60, 83}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := pairs[i%len(pairs)]
			pl.Alternatives(graph.NodeID(p[0]), graph.NodeID(p[1]))
		}
	}()
	wg.Add(1)
	go func() { // publish + swap stream: ≥3 swaps, synchronously installed
		defer wg.Done()
		for i := 0; i < 6; i++ {
			seq.Advance(st)
			pl.prov.refreshSync()
		}
		close(stop)
	}()

	last := floor
	for reads := 0; ; reads++ {
		select {
		case <-stop:
			wg.Wait()
			final := pl.HierarchyStatus()
			if final.ElimQueries < last.ElimQueries || final.ElimQueries < floor.ElimQueries {
				t.Fatalf("final counters below floor: %+v (floor %+v, last %+v)", final, floor, last)
			}
			return
		default:
		}
		cur := pl.HierarchyStatus()
		if cur.ElimQueries < last.ElimQueries || cur.ElimTruncated < last.ElimTruncated || cur.ElimAscentNodes < last.ElimAscentNodes {
			t.Fatalf("read %d: counters went backwards: %+v -> %+v", reads, last, cur)
		}
		last = cur
	}
}
