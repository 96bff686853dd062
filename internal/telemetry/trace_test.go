package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanRecorder(t *testing.T) {
	var r *SpanRecorder
	r.Record(1, "compile", time.Millisecond, "ok")
	r.SeedDone(1, "ok")
	if r.Spans() != nil || r.SlowestSeeds(5) != nil || r.StageStats() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.ReportSection(5) != "" {
		t.Fatal("nil recorder rendered a report")
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := NewSpanRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(int64(i), "s", time.Duration(i), "")
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest first: seeds 2,3,4,5 survive.
	for i, sp := range spans {
		if sp.Seed != int64(i+2) {
			t.Fatalf("span %d has seed %d, want %d", i, sp.Seed, i+2)
		}
	}
}

func TestStageStatsAggregation(t *testing.T) {
	r := NewSpanRecorder(16)
	r.Record(1, "compile", 10*time.Millisecond, "ok")
	r.Record(2, "compile", 30*time.Millisecond, "ok")
	r.Record(1, "interpret", 5*time.Millisecond, "panic")
	stats := r.StageStats()
	if len(stats) != 2 {
		t.Fatalf("got %d stages, want 2", len(stats))
	}
	// Sorted by total descending: compile (40ms) first.
	if stats[0].Stage != "compile" || stats[0].Count != 2 ||
		stats[0].Total != 40*time.Millisecond || stats[0].Max != 30*time.Millisecond ||
		stats[0].Mean != 20*time.Millisecond {
		t.Fatalf("compile row = %+v", stats[0])
	}
	if stats[1].Stage != "interpret" || stats[1].Count != 1 {
		t.Fatalf("interpret row = %+v", stats[1])
	}
}

// TestStageStatsQuantilesWithinMax checks that the bucket-bound
// quantiles are clamped to the largest observed span.
func TestStageStatsQuantilesWithinMax(t *testing.T) {
	r := NewSpanRecorder(16)
	for _, d := range []time.Duration{3 * time.Millisecond, 3500 * time.Microsecond, 3540 * time.Microsecond} {
		r.Record(1, "generate", d, "ok")
	}
	st := r.StageStats()[0]
	if st.Max != 3540*time.Microsecond || st.P50 > st.P99 || st.P99 > st.Max {
		t.Fatalf("want p50 <= p99 <= max = 3.54ms, got p50 %v p99 %v max %v", st.P50, st.P99, st.Max)
	}
}

func TestSlowestSeedsLeaderboard(t *testing.T) {
	r := NewSpanRecorder(16)
	// Seed cost accumulates across stages until SeedDone.
	r.Record(7, "compile", 10*time.Millisecond, "ok")
	r.Record(7, "interpret", 15*time.Millisecond, "ok")
	r.Record(8, "compile", 5*time.Millisecond, "ok")
	r.SeedDone(7, "ok")
	r.SeedDone(8, "detection")
	// A seed never finalized stays out of the leaderboard.
	r.Record(9, "compile", time.Hour, "ok")

	slow := r.SlowestSeeds(10)
	if len(slow) != 2 {
		t.Fatalf("leaderboard has %d entries, want 2", len(slow))
	}
	if slow[0].Seed != 7 || slow[0].Total != 25*time.Millisecond {
		t.Fatalf("slowest = %+v, want seed 7 at 25ms", slow[0])
	}
	if slow[1].Seed != 8 || slow[1].Outcome != "detection" {
		t.Fatalf("second = %+v", slow[1])
	}
	// SeedDone twice is harmless: the second call finds no pending time.
	r.SeedDone(7, "ok")
	if len(r.SlowestSeeds(10)) != 2 {
		t.Fatal("duplicate SeedDone added an entry")
	}
}

func TestSlowestSeedsBounded(t *testing.T) {
	r := NewSpanRecorder(16)
	for i := 0; i < defaultSlowestTracked+20; i++ {
		r.Record(int64(i), "s", time.Duration(i+1)*time.Microsecond, "")
		r.SeedDone(int64(i), "ok")
	}
	slow := r.SlowestSeeds(defaultSlowestTracked + 20)
	if len(slow) != defaultSlowestTracked {
		t.Fatalf("leaderboard has %d entries, want %d", len(slow), defaultSlowestTracked)
	}
	// It kept the costliest: the highest-seed entries.
	if slow[0].Seed != int64(defaultSlowestTracked+19) {
		t.Fatalf("top entry is seed %d", slow[0].Seed)
	}
}

func TestReportSection(t *testing.T) {
	r := NewSpanRecorder(16)
	if r.ReportSection(5) != "" {
		t.Fatal("empty recorder rendered a report")
	}
	r.Record(3, "compile", 2*time.Millisecond, "ok")
	r.SeedDone(3, "ok")
	out := r.ReportSection(5)
	for _, want := range []string{"telemetry:", "compile", "slowest seeds", "seed 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(64)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seed := int64(w*per + i)
				r.Record(seed, "s", time.Microsecond, "ok")
				r.SeedDone(seed, "ok")
			}
		}(w)
	}
	wg.Wait()
	stats := r.StageStats()
	if len(stats) != 1 || stats[0].Count != workers*per {
		t.Fatalf("stats = %+v, want %d spans", stats, workers*per)
	}
}
