package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestCellLayout pins the counter block at exactly two cache lines, so
// neighbouring workers' per-chunk updates never share a line (doc.go,
// invariant 2).
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 128 {
		t.Fatalf("Cell is %d bytes, want exactly 128 (two cache lines)", got)
	}
	var m [2]Cell
	d := uintptr(unsafe.Pointer(&m[1])) - uintptr(unsafe.Pointer(&m[0]))
	if d != 128 {
		t.Fatalf("adjacent cells are %d bytes apart, want 128", d)
	}
}

func TestTier(t *testing.T) {
	// Two packages: clusters {0,1} together, cluster 2 alone.
	dist := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 2, 0}}
	cases := []struct {
		own, origin, want int
	}{
		{0, 0, TierHome},
		{0, -1, TierHome}, // shared pool
		{0, 1, TierSamePkg},
		{0, 2, TierCross},
		{2, 0, TierCross},
		{1, 0, TierSamePkg},
	}
	for _, c := range cases {
		if got := Tier(dist, c.own, c.origin); got != c.want {
			t.Errorf("Tier(own=%d, origin=%d) = %d, want %d", c.own, c.origin, got, c.want)
		}
	}
	// No topology: every foreign origin is same-package, home stays home.
	if got := Tier(nil, 0, 1); got != TierSamePkg {
		t.Errorf("Tier(nil, 0, 1) = %d, want TierSamePkg", got)
	}
	if got := Tier(nil, 1, 1); got != TierHome {
		t.Errorf("Tier(nil, 1, 1) = %d, want TierHome", got)
	}
}

// count applies one grant of n iterations at tier, busy ns long, that claimed
// credit iterations from the pool to c, the way a lane's flush does.
func count(c *Cell, n int64, tier int, busy, credit int64) {
	b := batch{Chunks: 1, Iters: n, CreditClaimed: credit, BusyNs: busy}
	b.Steals[tier] = 1
	c.apply(&b)
}

func TestSnapshotTotalsAndOccupancy(t *testing.T) {
	// 4 workers, types 0,0,1,1.
	m := New(4, 2, func(tid int) int { return tid / 2 })
	count(m.Cell(0), 10, TierHome, 100, 0)
	count(m.Cell(1), 5, TierSamePkg, 50, 0)
	count(m.Cell(2), 3, TierCross, 30, 8)
	m.Cell(3).Idle(40)
	m.Cell(3).apply(&batch{SchedNs: 7})

	s := m.Snapshot()
	if s.Chunks != 3 || s.Iters != 18 {
		t.Fatalf("totals chunks=%d iters=%d, want 3/18", s.Chunks, s.Iters)
	}
	if s.StealsHome != 1 || s.StealsSamePkg != 1 || s.StealsCross != 1 {
		t.Fatalf("tier buckets %d/%d/%d, want 1/1/1", s.StealsHome, s.StealsSamePkg, s.StealsCross)
	}
	if s.Steals() != 2 {
		t.Fatalf("Steals() = %d, want 2", s.Steals())
	}
	if s.CreditClaimed != 8 {
		t.Fatalf("credit %d, want 8", s.CreditClaimed)
	}
	if s.BusyNs != 180 || s.IdleNs != 40 || s.SchedNs != 7 {
		t.Fatalf("time busy=%d idle=%d sched=%d, want 180/40/7", s.BusyNs, s.IdleNs, s.SchedNs)
	}
	if s.OccupancyNs[0] != 150 || s.OccupancyNs[1] != 30 {
		t.Fatalf("occupancy %v, want [150 30]", s.OccupancyNs)
	}
	if len(s.Workers) != 4 || s.Workers[2].CreditClaimed != 8 {
		t.Fatalf("per-worker breakdown wrong: %+v", s.Workers)
	}
}

func TestSnapshotDeltaAndAdd(t *testing.T) {
	m := New(2, 2, func(tid int) int { return tid })
	count(m.Cell(0), 4, TierHome, 10, 0)
	prev := m.Snapshot()
	count(m.Cell(0), 6, TierCross, 0, 0)
	m.Cell(1).apply(&batch{BusyNs: 5})
	cur := m.Snapshot()

	d := cur.Delta(prev)
	if d.Chunks != 1 || d.Iters != 6 || d.StealsCross != 1 {
		t.Fatalf("delta chunks=%d iters=%d cross=%d, want 1/6/1", d.Chunks, d.Iters, d.StealsCross)
	}
	if d.OccupancyNs[0] != 0 || d.OccupancyNs[1] != 5 {
		t.Fatalf("delta occupancy %v, want [0 5]", d.OccupancyNs)
	}
	if d.Workers[0].Iters != 6 || d.Workers[1].BusyNs != 5 {
		t.Fatalf("delta workers wrong: %+v", d.Workers)
	}

	sum := prev.Add(d)
	if sum.Chunks != cur.Chunks || sum.Iters != cur.Iters || sum.BusyNs != cur.BusyNs {
		t.Fatalf("prev.Add(delta) != cur: %+v vs %+v", sum.Counters, cur.Counters)
	}
	// Adding a zero snapshot (nil slices) must size up gracefully.
	z := Snapshot{}.Add(cur)
	if z.Chunks != cur.Chunks || len(z.OccupancyNs) != 2 || len(z.Workers) != 2 {
		t.Fatalf("zero.Add(cur) wrong: %+v", z)
	}
}

// TestSnapshotConcurrentScrape exercises invariant 4 under the race
// detector: a scraper reading while the owner counts must be race-free and
// observe per-counter monotonic values.
func TestSnapshotConcurrentScrape(t *testing.T) {
	m := New(1, 1, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			count(m.Cell(0), 1, TierHome, 2, 0)
		}
	}()
	var last Snapshot
	for i := 0; i < 1000; i++ {
		s := m.Snapshot()
		if s.Chunks < last.Chunks || s.BusyNs < last.BusyNs {
			t.Errorf("counter went backwards: %+v after %+v", s.Counters, last.Counters)
			break
		}
		last = s
	}
	close(stop)
	wg.Wait()
}
