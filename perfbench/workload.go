package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/telemetry"
)

// programSize is the generator size of every workload; headline
// campaign throughput is quoted at size 30.
const programSize = 30

// planSeed is the plan-sampling seed of the plans workload, the
// ratte-fuzz -plan-seed default.
const planSeed = 1

// seedStride separates the campaign seed ranges of two --seed values,
// so different benchmark seeds test disjoint programs.
const seedStride = 1_000_000

// workload is one campaign shape the benchmark runs. README.md records
// why each exists and which layers it stresses.
type workload struct {
	name    string
	preset  string
	bugs    []bugs.ID
	workers int  // 0 means one per CPU, the ratte-fuzz default
	plans   int  // sampled plans per program; 0 tests the 4 build configs
	family  int  // batched mutation-family size; 0 is the classic loop
	observe bool // attach CampaignTelemetry and CampaignCoverage
	journal bool
	// chunk is the seed count of one timed campaign. A run times
	// consecutive chunks and reports medians over them.
	chunk int
}

var workloads = []workload{
	{name: "ariths", preset: "ariths", workers: 1, chunk: 200},
	{name: "linalg", preset: "linalggeneric", workers: 1, observe: true, chunk: 100},
	// Bug 3 is left out: it turns ~99% of seeds into NC detections.
	{name: "plans", preset: "ariths", bugs: []bugs.ID{1, 2, 4, 5, 6, 7, 8}, plans: 16, journal: true, chunk: 200},
	{name: "family", preset: "tensor", workers: 1, family: 4, chunk: 400},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is a workload's set-up state, shared by every campaign of a run.
type bench struct {
	w       workload
	workers int
	bugSet  bugs.Set
	plans   []compiler.Plan
	tel     *difftest.CampaignTelemetry
	cov     *difftest.CampaignCoverage
	outDir  string
}

func newBench(w workload, outDir string) (*bench, error) {
	b := &bench{w: w, workers: w.workers, bugSet: bugs.Only(w.bugs...), outDir: outDir}
	if b.workers == 0 {
		b.workers = runtime.GOMAXPROCS(0)
	}
	if w.plans > 0 {
		plans, err := compiler.SamplePlans(w.preset, w.plans, planSeed)
		if err != nil {
			return nil, fmt.Errorf("sample plans: %w", err)
		}
		b.plans = plans
	}
	if w.observe {
		// Wired as `ratte-fuzz -coverage -metrics-dump` wires it.
		b.tel = difftest.NewCampaignTelemetry(nil)
		telemetry.RegisterProcessMetrics(b.tel.Registry)
		b.cov = difftest.NewCampaignCoverage(b.tel.Registry)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

// expectDetections reports whether the workload injects bugs, so
// detections are the point rather than false positives.
func (b *bench) expectDetections() bool { return len(b.w.bugs) > 0 }

func (b *bench) config(first int64, count int) difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:     b.w.preset,
		Programs:   count,
		Size:       programSize,
		Seed:       first,
		Bugs:       b.bugSet,
		FamilySize: b.w.family,
		Batched:    b.w.family > 1,
		Telemetry:  b.tel,
		Coverage:   b.cov,
		Plans:      b.plans,
	}
}

// campaign runs one campaign of count seeds from first on the given
// number of workers. The returned cost brackets the engine call alone:
// journal creation and the journal's closing fsync stay outside it.
func (b *bench) campaign(first int64, count, workers int) (*difftest.CampaignResult, cost, error) {
	cfg := b.config(first, count)
	if b.w.journal {
		j, err := difftest.CreateJournal(filepath.Join(b.outDir, b.w.name+"-journal.jsonl"), cfg)
		if err != nil {
			return nil, cost{}, err
		}
		cfg.Journal = j
	}
	before := snap()
	res, err := difftest.RunCampaignParallelCtx(context.Background(), cfg, workers)
	c := before.since()
	if cfg.Journal != nil {
		if cerr := cfg.Journal.Close(); err == nil {
			err = cerr
		}
	}
	return res, c, err
}

// check counts the seeds of one campaign that failed an output check:
// a stage failure, timeout or quarantine; a detection under the
// correct compiler; or, with bugs injected, a detection that persists
// when the same program is re-tested under the same plans with every
// bug off (a false positive). problems describes each failure.
func (b *bench) check(res *difftest.CampaignResult, count int) (failed int, problems []string) {
	if len(res.Verdicts) != count {
		problems = append(problems, fmt.Sprintf("%d verdicts for %d seeds", len(res.Verdicts), count))
		failed += abs(count - len(res.Verdicts))
	}
	bad := make(map[int64]bool)
	for _, v := range res.Verdicts {
		switch {
		case v.Kind == difftest.VerdictStageFailure || v.Kind == difftest.VerdictTimeout || v.Quarantined:
			bad[v.Seed] = true
			problems = append(problems, fmt.Sprintf("seed %d: %s", v.Seed, v.Kind))
		case v.Kind == difftest.VerdictDetection && !b.expectDetections():
			bad[v.Seed] = true
			problems = append(problems, fmt.Sprintf("seed %d: %s detection under the correct compiler", v.Seed, v.Oracle))
		}
	}
	if b.expectDetections() {
		for _, d := range res.Detections {
			if bad[d.Seed] || b.falsePositive(d) {
				if !bad[d.Seed] {
					problems = append(problems, fmt.Sprintf("seed %d: %s persists with bugs off", d.Seed, d.Oracle))
				}
				bad[d.Seed] = true
			}
		}
	}
	return failed + len(bad), problems
}

// falsePositive re-tests a detected program with every bug off and
// reports whether an oracle still fires.
func (b *bench) falsePositive(d difftest.Detection) bool {
	if d.Program == nil {
		return true
	}
	if len(b.plans) > 0 {
		o, _ := difftest.TestModulePlans(d.Program, d.Expected, b.plans, bugs.None()).Detected()
		return o != difftest.OracleNone
	}
	return difftest.TestModule(d.Program, d.Expected, b.w.preset, bugs.None()).Detected() != difftest.OracleNone
}

// verdictKey is the part of a verdict that the traced run must
// reproduce: everything but attempt counts, fault tallies and failure
// stacks, with coverage reduced to its site and hit totals.
type verdictKey struct {
	seed     int64
	kind     difftest.VerdictKind
	oracle   difftest.Oracle
	plan     string
	program  uint64
	covSites int
	covHits  uint64
}

func keyOf(v difftest.Verdict) verdictKey {
	k := verdictKey{seed: v.Seed, kind: v.Kind, oracle: v.Oracle, plan: v.Plan, program: v.Program, covSites: len(v.Coverage)}
	for _, n := range v.Coverage {
		k.covHits += n
	}
	return k
}

func (k verdictKey) String() string {
	return fmt.Sprintf("%d %s %s %s %016x %d %d", k.seed, k.kind, k.oracle, k.plan, k.program, k.covSites, k.covHits)
}

// digest is the SHA-256 of a verdict sequence, one key per line.
func digest(keys []verdictKey) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// checked is one campaign chunk with its verdict keys and checks.
type checked struct {
	res      *difftest.CampaignResult
	keys     []verdictKey
	cost     cost
	failed   int
	problems []string
}

// runChunk runs and checks the campaign of one chunk from first on workers.
func (b *bench) runChunk(first int64, workers int) (*checked, error) {
	res, c, err := b.campaign(first, b.w.chunk, workers)
	if err != nil {
		return nil, err
	}
	c.seeds = b.w.chunk
	ch := &checked{res: res, cost: c, keys: make([]verdictKey, len(res.Verdicts))}
	for i, v := range res.Verdicts {
		ch.keys[i] = keyOf(v)
	}
	ch.failed, ch.problems = b.check(res, b.w.chunk)
	return ch, nil
}

// pass is the outcome of consecutive timed chunks.
type pass struct {
	chunks []cost
	keys   []verdictKey
	failed int
	// problems holds the first few failure descriptions.
	problems []string
	// golden is the report and verdict digest of the first chunk.
	golden goldenEntry
}

func (p *pass) seeds() int { return len(p.keys) }

// engineWall sums the chunks' engine wall times.
func (p *pass) engineWall() time.Duration {
	var d time.Duration
	for _, c := range p.chunks {
		d += c.wall
	}
	return d
}

// note records a chunk's failures, keeping the first few descriptions.
func (p *pass) note(failed int, problems []string) {
	p.failed += failed
	for _, s := range problems {
		if len(p.problems) < 20 {
			p.problems = append(p.problems, s)
		}
	}
}

// run times chunks from first on the bench's workers until more than
// budget has elapsed, at least one chunk. Chunk i starts stride*i
// chunks after first. after, when not nil, runs after each chunk with
// the chunk's first seed and its verdict keys, and its time counts
// against the budget.
func (b *bench) run(first int64, stride int, budget time.Duration, after func(int64, []verdictKey) error) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) <= budget; i++ {
		cf := first + int64(i*stride*b.w.chunk)
		ch, err := b.runChunk(cf, b.workers)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.golden = goldenEntry{Report: sha(difftest.ReportText(ch.res)), Verdicts: digest(ch.keys)}
		}
		p.chunks = append(p.chunks, ch.cost)
		p.keys = append(p.keys, ch.keys...)
		p.note(ch.failed, ch.problems)
		if after != nil {
			if err := after(cf, ch.keys); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}
