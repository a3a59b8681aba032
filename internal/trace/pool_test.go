package trace

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/amp"
)

// chunksFrom is what a Recorder records of n one-iteration grants whose
// iterations start at base: the events recordFrom hands it, numbered.
func chunksFrom(base int64, n int) []ChunkEvent {
	evs := make([]ChunkEvent, n)
	for i := range evs {
		lo := base + int64(i)
		evs[i] = ChunkEvent{Seq: int64(i), TimeNs: lo, Tid: int32(i % 4), Lo: lo, Hi: lo + 1, Cost: float64(lo)}
	}
	return evs
}

// recordFrom records chunksFrom(base, n) with a new Recorder and returns the
// record's events.
func recordFrom(t testing.TB, base int64, n int) []ChunkEvent {
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "sim", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 4, Binding: "BS"}); err != nil {
		t.Error(err)
		return nil
	}
	for _, ev := range chunksFrom(base, n) {
		rec.Chunk(ev)
	}
	return rec.Record().Events
}

// TestRecordingsSharePool: recordings on several goroutines at once, and
// decodes of a record longer than the decoder's reservation, take their
// blocks from the same pools and hand them back. Every record equals the one
// a lone recording gives, and keeps equal to it while the other goroutines
// go on recording: no two streams share a block, and no record is a block
// that went back. Under -race, it is also where a block handed from one
// goroutine to another is checked.
func TestRecordingsSharePool(t *testing.T) {
	const goroutines, rounds = 4, 3
	lengths := []int{10, 16, 17, 4000, 21_725}
	big := recordEvents(t, maxEventReservation+9_000)
	var wire bytes.Buffer
	if err := EncodeJSONL(&wire, big); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type kept struct {
				events []ChunkEvent
				want   []ChunkEvent
			}
			var records []kept
			for round := 0; round < rounds; round++ {
				for _, n := range lengths {
					base := int64(g)<<40 | int64(round)<<32
					records = append(records, kept{recordFrom(t, base, n), chunksFrom(base, n)})
				}
				back, err := DecodeJSONL(bytes.NewReader(wire.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				records = append(records, kept{back.Events, big.Events})
				for i, r := range records {
					if !slices.Equal(r.events, r.want) {
						t.Errorf("goroutine %d, round %d: record %d of %d events differs from a lone recording's", g, round, i, len(r.want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRecordBlockNeverPooled: the lone block a short stream's record is
// taken as is never goes back to its pool, while the blocks a longer stream
// copies out do, and their events are the record's no more.
func TestRecordBlockNeverPooled(t *testing.T) {
	drain := func() (blocks []*[]ChunkEvent) {
		for {
			b, ok := eventBlocks[0].Get().(*[]ChunkEvent)
			if !ok {
				return blocks
			}
			blocks = append(blocks, b)
		}
	}
	drain()
	lone := recordFrom(t, 0, firstEventBlock)
	if cap(lone) != firstEventBlock {
		t.Fatalf("a %d-event record has room for %d, not its lone block's", firstEventBlock, cap(lone))
	}
	for _, b := range drain() {
		if &(*b)[:1][0] == &lone[0] {
			t.Fatal("the block a record was taken as went back to its pool")
		}
	}
	long := recordFrom(t, 0, firstEventBlock+1)
	pooled := drain()
	if len(pooled) == 0 && !raceEnabled { // sync.Pool drops some of what it is handed under -race
		t.Fatalf("a %d-event stream handed no %d-event block back", firstEventBlock+1, firstEventBlock)
	}
	for _, b := range pooled {
		if len(*b) != 0 || cap(*b) != firstEventBlock {
			t.Errorf("a pooled block holds %d of %d events, want 0 of %d", len(*b), cap(*b), firstEventBlock)
		}
		if &(*b)[:1][0] == &long[0] {
			t.Error("a pooled block is the record's array")
		}
	}
	if want := chunksFrom(0, firstEventBlock+1); !slices.Equal(long, want) {
		t.Errorf("the record of %d events differs from its events", len(want))
	}
	if want := chunksFrom(0, firstEventBlock); !slices.Equal(lone, want) {
		t.Errorf("the record of %d events differs from its events", len(want))
	}
}

// TestEventBlockSizes: a stream's block i holds firstEventBlock<<i events up
// to maxEventBlock, whether it was made or taken from a pool.
func TestEventBlockSizes(t *testing.T) {
	for _, warm := range []bool{false, true} {
		var s eventStream
		for i := 0; i < 12*maxEventBlock; i++ {
			s.add(&ChunkEvent{Seq: int64(i)})
		}
		for i, b := range s.blocks {
			if want := min(firstEventBlock<<i, maxEventBlock); cap(*b) != want {
				t.Errorf("warm=%v: block %d has room for %d events, want %d", warm, i, cap(*b), want)
			}
		}
		if got := s.events(0); len(got) != 12*maxEventBlock || got[len(got)-1].Seq != int64(len(got)-1) {
			t.Fatalf("warm=%v: %d events, last %+v", warm, len(got), got[len(got)-1])
		}
	}
}
