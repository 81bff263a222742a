package weights

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestStoreVersioning(t *testing.T) {
	st := NewStore([]float64{1, 2, 3})
	s1 := st.Latest()
	if s1.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", s1.Version())
	}
	if got := s1.Weights(); got[1] != 2 {
		t.Fatalf("initial weights = %v", got)
	}

	s2 := st.Publish([]float64{4, 5, 6})
	if s2.Version() != 2 {
		t.Fatalf("second version = %d, want 2", s2.Version())
	}
	if st.Latest() != s2 {
		t.Fatal("Latest does not return the newest snapshot")
	}
	// The superseded snapshot is immutable and still readable.
	if s1.Weights()[0] != 1 {
		t.Fatal("old snapshot mutated by publish")
	}
}

func TestPublishCopiesInput(t *testing.T) {
	w := []float64{1, 2}
	st := NewStore(w)
	w[0] = 99
	if st.Latest().Weights()[0] != 1 {
		t.Fatal("store aliases the caller's slice")
	}
}

func TestPublishLengthMismatchPanics(t *testing.T) {
	st := NewStore([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("publishing a wrong-length vector did not panic")
		}
	}()
	st.Publish([]float64{1})
}

func TestBanSurvivesPublishes(t *testing.T) {
	st := NewStore([]float64{1, 2, 3, 4})
	banned := st.Ban(graph.EdgeID(2))
	if banned.Version() != 2 {
		t.Fatalf("ban republished as version %d, want 2", banned.Version())
	}
	if !math.IsInf(banned.Weights()[2], 1) {
		t.Fatal("ban did not take effect immediately")
	}
	// A later publish of all-finite weights keeps the ban.
	next := st.Publish([]float64{9, 9, 9, 9})
	if !math.IsInf(next.Weights()[2], 1) {
		t.Fatal("ban lost on the next publish")
	}
	if next.Weights()[1] != 9 {
		t.Fatal("unbanned weights not taken from the published vector")
	}
	if got := st.Banned(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Banned() = %v, want [2]", got)
	}
}

func TestPinIsItsOwnSource(t *testing.T) {
	p := Pin([]float64{7})
	var src Source = p
	if src.Snapshot() != p {
		t.Fatal("pinned snapshot does not resolve to itself")
	}
	if p.Version() != Pinned {
		t.Fatalf("pinned version = %d, want %d", p.Version(), Pinned)
	}
}

func TestSubscribersSeeEveryPublishInOrder(t *testing.T) {
	st := NewStore([]float64{1})
	var got []Version
	st.Subscribe(func(s *Snapshot) { got = append(got, s.Version()) })
	st.Publish([]float64{2})
	st.Ban(graph.EdgeID(0))
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("subscriber saw versions %v, want [2 3]", got)
	}
}

// TestConcurrentPublishAndRead is the store's core guarantee: readers can
// resolve Latest while publishers race, versions stay strictly increasing,
// and every reader sees a fully formed snapshot.
func TestConcurrentPublishAndRead(t *testing.T) {
	st := NewStore(make([]float64, 16))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Version
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Latest()
				if s.Version() < last {
					t.Error("version went backwards")
					return
				}
				last = s.Version()
				if s.Len() != 16 {
					t.Error("torn snapshot")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		st.Publish(make([]float64, 16))
	}
	close(stop)
	wg.Wait()
	if st.Version() != 201 {
		t.Fatalf("final version = %d, want 201", st.Version())
	}
}

// TestUpdateAtomicReadModifyWrite pins Update's contract: fn sees the
// snapshot its publish immediately supersedes, nothing interleaves, a nil
// return skips the publish, and the ban mask still applies.
func TestUpdateAtomicReadModifyWrite(t *testing.T) {
	st := NewStore([]float64{1, 2})
	snap := st.Update(func(prev *Snapshot) []float64 {
		w := append([]float64(nil), prev.Weights()...)
		w[0] += 10
		return w
	})
	if snap.Version() != 2 || snap.Weights()[0] != 11 {
		t.Fatalf("update published v%d %v, want v2 [11 2]", snap.Version(), snap.Weights())
	}
	if got := st.Update(func(*Snapshot) []float64 { return nil }); got != snap {
		t.Fatalf("nil-returning Update must return the current snapshot unchanged")
	}
	if st.Version() != 2 {
		t.Fatalf("nil-returning Update must not publish (version %d)", st.Version())
	}
	st.Ban(0)
	snap = st.Update(func(prev *Snapshot) []float64 {
		w := append([]float64(nil), prev.Weights()...)
		w[1] = 7
		return w
	})
	if !math.IsInf(snap.Weights()[0], 1) || snap.Weights()[1] != 7 {
		t.Fatalf("Update must apply the ban mask: %v", snap.Weights())
	}
}

// TestConcurrentProducersGaplessVersions is the multi-producer pin: two
// producer families hammering one store through Publish and Update never
// tear the version sequence — every subscriber delivery is exactly the
// predecessor's version plus one, and read-modify-write updates never
// lose increments.
func TestConcurrentProducersGaplessVersions(t *testing.T) {
	st := NewStore([]float64{0})
	var mu sync.Mutex
	var seen []Version
	st.Subscribe(func(s *Snapshot) {
		mu.Lock()
		seen = append(seen, s.Version())
		mu.Unlock()
	})
	const producers, each = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if p%2 == 0 {
					st.Publish([]float64{float64(p)})
				} else {
					st.Update(func(prev *Snapshot) []float64 {
						return []float64{prev.Weights()[0] + 1}
					})
				}
			}
		}(p)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != producers*each {
		t.Fatalf("subscriber saw %d publishes, want %d", len(seen), producers*each)
	}
	for i, v := range seen {
		if v != Version(i+2) { // NewStore published v1 before subscription
			t.Fatalf("version sequence has a gap at %d: %v...", i, seen[:i+1])
		}
	}
	if got := st.Version(); got != Version(producers*each+1) {
		t.Fatalf("final version %d, want %d", got, producers*each+1)
	}
}
