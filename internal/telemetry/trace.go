// Structured stage tracing: a ring-buffered span recorder keyed by
// (seed, stage). Every stage execution of the per-seed pipeline
// records one Span — duration plus outcome — and the recorder keeps
// three views of them: the raw ring (the last N spans, for live
// introspection), per-stage aggregates (count/total/max plus a
// power-of-two latency histogram, for the final report's latency
// table), and a bounded leaderboard of the costliest seeds (for the
// report's slowest-seeds section).
//
// Recording takes one short mutex hold per span — spans are per-stage,
// not per-op, so the rate is a handful per seed and the lock never
// shows on a profile. A nil *SpanRecorder records nothing.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one recorded stage execution.
type Span struct {
	Seed    int64         `json:"seed"`
	Stage   string        `json:"stage"`
	Dur     time.Duration `json:"dur_ns"`
	Outcome string        `json:"outcome,omitempty"`
}

// stageAgg aggregates every span of one stage.
type stageAgg struct {
	count   uint64
	total   time.Duration
	max     time.Duration
	hist    Histogram
	outcome map[string]uint64
}

// SeedCost is one entry of the slowest-seeds leaderboard: the total
// wall-clock a seed's stages consumed, and its final outcome.
type SeedCost struct {
	Seed    int64         `json:"seed"`
	Total   time.Duration `json:"total_ns"`
	Outcome string        `json:"outcome,omitempty"`
}

// DefaultSpanRingSize bounds the raw-span ring of a recorder built
// with NewSpanRecorder(0).
const DefaultSpanRingSize = 4096

// defaultSlowestTracked is how many of the costliest seeds the
// leaderboard retains.
const defaultSlowestTracked = 32

// SpanRecorder records stage spans. Safe for concurrent use; a nil
// recorder is a no-op.
type SpanRecorder struct {
	mu      sync.Mutex
	ring    []Span
	next    uint64 // total spans ever recorded; ring slot is next % len
	stages  map[string]*stageAgg
	pending map[int64]time.Duration // per-seed totals, until SeedDone
	slowest []SeedCost              // min-heap-by-Total of the top K
}

// NewSpanRecorder builds a recorder whose ring keeps the last
// ringSize spans (DefaultSpanRingSize if <= 0).
func NewSpanRecorder(ringSize int) *SpanRecorder {
	if ringSize <= 0 {
		ringSize = DefaultSpanRingSize
	}
	return &SpanRecorder{
		ring:    make([]Span, 0, ringSize),
		stages:  make(map[string]*stageAgg),
		pending: make(map[int64]time.Duration),
	}
}

// Record logs one stage execution for a seed: its duration and
// outcome ("ok", a verdict kind, "panic", "injected", ...). The
// duration also accrues to the seed's running total for the
// slowest-seeds leaderboard (finalized by SeedDone).
func (t *SpanRecorder) Record(seed int64, stage string, d time.Duration, outcome string) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	sp := Span{Seed: seed, Stage: stage, Dur: d, Outcome: outcome}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next%uint64(cap(t.ring))] = sp
	}
	t.next++
	agg := t.stages[stage]
	if agg == nil {
		agg = &stageAgg{outcome: make(map[string]uint64)}
		t.stages[stage] = agg
	}
	agg.count++
	agg.total += d
	if d > agg.max {
		agg.max = d
	}
	if outcome != "" {
		agg.outcome[outcome]++
	}
	t.pending[seed] += d
	t.mu.Unlock()
	agg.hist.ObserveDuration(d) // atomic; outside the lock on purpose
}

// SeedDone finalizes a seed: its accumulated stage time enters the
// slowest-seeds leaderboard tagged with the seed's final outcome, and
// the running total is released.
func (t *SpanRecorder) SeedDone(seed int64, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total, ok := t.pending[seed]
	if !ok {
		return
	}
	delete(t.pending, seed)
	sc := SeedCost{Seed: seed, Total: total, Outcome: outcome}
	if len(t.slowest) < defaultSlowestTracked {
		t.slowest = append(t.slowest, sc)
		return
	}
	// Replace the cheapest retained entry if this seed beats it.
	min := 0
	for i := 1; i < len(t.slowest); i++ {
		if t.slowest[i].Total < t.slowest[min].Total {
			min = i
		}
	}
	if total > t.slowest[min].Total {
		t.slowest[min] = sc
	}
}

// Spans returns the ring's contents, oldest first.
func (t *SpanRecorder) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		out := make([]Span, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Span, 0, cap(t.ring))
	start := t.next % uint64(cap(t.ring))
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// SlowestSeeds returns the up-to-n costliest finalized seeds, most
// expensive first (ties broken by seed for a stable order).
func (t *SpanRecorder) SlowestSeeds(n int) []SeedCost {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	out := make([]SeedCost, len(t.slowest))
	copy(out, t.slowest)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Seed < out[j].Seed
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// StageStat is one row of the per-stage latency table.
type StageStat struct {
	Stage string        `json:"stage"`
	Count uint64        `json:"count"`
	Total time.Duration `json:"total_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// StageStats returns per-stage aggregates sorted by total time
// descending (ties by name) — where the wall-clock went.
func (t *SpanRecorder) StageStats() []StageStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]StageStat, 0, len(t.stages))
	for name, agg := range t.stages {
		st := StageStat{
			Stage: name,
			Count: agg.count,
			Total: agg.total,
			Max:   agg.max,
			// The histogram answers with a power-of-two bucket bound,
			// which can exceed every observed span; no quantile is
			// above the maximum.
			P50: min(agg.hist.Quantile(0.50), agg.max),
			P99: min(agg.hist.Quantile(0.99), agg.max),
		}
		if agg.count > 0 {
			st.Mean = agg.total / time.Duration(agg.count)
		}
		out = append(out, st)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// ReportSection renders the telemetry appendix of a campaign report:
// the per-stage latency table and the slowest-N seeds. It is advisory
// output — timings vary run to run — so it is kept out of the
// canonical ReportText that determinism guards compare.
func (t *SpanRecorder) ReportSection(slowestN int) string {
	if t == nil {
		return ""
	}
	stats := t.StageStats()
	if len(stats) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("telemetry:\n")
	b.WriteString("  stage        count      total       mean        p50        p99        max\n")
	for _, st := range stats {
		fmt.Fprintf(&b, "  %-10s %7d %10s %10s %10s %10s %10s\n",
			st.Stage, st.Count, fmtDur(st.Total), fmtDur(st.Mean),
			fmtDur(st.P50), fmtDur(st.P99), fmtDur(st.Max))
	}
	if slow := t.SlowestSeeds(slowestN); len(slow) > 0 {
		fmt.Fprintf(&b, "  slowest seeds (top %d):\n", len(slow))
		for _, sc := range slow {
			fmt.Fprintf(&b, "    seed %-12d %10s  %s\n", sc.Seed, fmtDur(sc.Total), sc.Outcome)
		}
	}
	return b.String()
}

// fmtDur renders a duration compactly with millisecond/microsecond
// granularity appropriate to its size.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}
