package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/coverage"
	"ratte/internal/dialects"
	"ratte/internal/difftest"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/telemetry"
	"ratte/internal/verify"
)

// span is one timed call into a layer. Spans of one seed share Seed
// (the family's first seed on the family workload).
type span struct {
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Parent int32  `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated inside the span
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span; the allocation counter is read outside the
// timed interval.
func (t *tracer) begin(name string, parent int32, seed int64) int32 {
	a := t.allocs()
	t.spans = append(t.spans, span{Name: name, Seed: seed, Parent: parent, Alloc: a, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = end
	s.Alloc = t.allocs() - s.Alloc
}

// layerSpans names the spans whose summed time is a layer's busy time.
// interp.engine_compile nests inside interp and is not summed again.
var layerSpans = []string{"gen", "verify", "compiler", "interp", "difftest.family", "difftest.compare", "difftest.journal"}

// traced drives the per-seed pipeline through each layer's public
// functions, as the campaign engine calls them, with a span around
// every call.
type traced struct {
	b       *bench
	tr      *tracer
	keys    []verdictKey
	genM    *gen.Metrics
	interpM *interp.Metrics
	journal *difftest.Journal
	// modules holds the chunk's verified modules for the compile replay.
	modules []*ir.Module

	covUnion *coverage.Map
	covHits  uint64

	genCalls, ops     int
	compiles, outputs int
	rejects           int
	runs              int
	directCompiles    int
}

func newTraced(b *bench) *traced {
	reg := telemetry.NewRegistry()
	t := &traced{b: b, tr: newTracer(), interpM: interp.NewMetrics(reg), covUnion: coverage.NewMap()}
	if b.w.observe {
		t.genM = gen.NewMetrics(reg)
	}
	return t
}

func (t *traced) generate(root int32, seed int64, cov *coverage.Map) (*gen.Program, error) {
	s := t.tr.begin("gen", root, seed)
	p, err := gen.Generate(gen.Config{Preset: t.b.w.preset, Size: programSize, Seed: seed, Metrics: t.genM, Coverage: cov})
	t.tr.end(s)
	if err == nil {
		t.genCalls++
		t.ops += p.Module.NumOps()
	}
	return p, err
}

func (t *traced) verify(root int32, seed int64, m *ir.Module) error {
	s := t.tr.begin("verify", root, seed)
	defer t.tr.end(s)
	return verify.Module(m, dialects.SourceSpecs())
}

// compile runs the shared-prefix compilation of the workload's build
// configurations or plans.
func (t *traced) compile(root int32, seed int64, m *ir.Module, cov *coverage.Map) []compiler.ConfigResult {
	opts := &compiler.Options{Bugs: t.b.bugSet, SkipVerify: true, Coverage: cov}
	s := t.tr.begin("compiler", root, seed)
	var outs []compiler.ConfigResult
	if len(t.b.plans) > 0 {
		outs = compiler.CompilePlansOpts(m, opts, t.b.plans)
	} else {
		outs = compiler.CompileConfigsOpts(m, t.b.w.preset, opts, difftest.BuildConfigs)
	}
	t.tr.end(s)
	t.compiles++
	t.outputs += len(outs)
	for _, o := range outs {
		if o.Err != nil {
			t.rejects++
		}
	}
	return outs
}

// seed runs one classic or plan-mode seed: generate, verify, compile,
// interpret every output, compare, and journal.
func (t *traced) seed(seed int64) {
	root := t.tr.begin("seed", -1, seed)
	defer t.tr.end(root)
	var cov *coverage.Map
	if t.b.w.observe {
		cov = coverage.NewMap()
	}
	p, err := t.generate(root, seed, cov)
	if err != nil {
		t.record(root, difftest.Verdict{Seed: seed, Kind: difftest.VerdictStageFailure})
		return
	}
	m := p.Module
	n := len(difftest.BuildConfigs)
	if len(t.b.plans) > 0 {
		n = len(t.b.plans)
	}
	results := make([]difftest.LevelResult, n)
	if verr := t.verify(root, seed, m); verr != nil {
		for i := range results {
			results[i].CompileErr = verr
		}
	} else {
		t.modules = append(t.modules, m)
		outs := t.compile(root, seed, m, cov)
		s := t.tr.begin("interp", root, seed)
		for i, o := range outs {
			if o.Err != nil {
				results[i].CompileErr = o.Err
				continue
			}
			ex := dialects.NewExecutor()
			ex.Metrics = t.interpM
			ex.Coverage = cov
			res, err := ex.Run(o.Module, "main")
			t.runs++
			if err != nil {
				results[i].RunErr = err
			} else {
				results[i].Output = res.Output
			}
		}
		t.tr.end(s)
	}

	s := t.tr.begin("difftest.compare", root, seed)
	v := difftest.Verdict{Seed: seed, Kind: difftest.VerdictOK, Attempts: 1}
	if len(t.b.plans) > 0 {
		rep := &difftest.PlanReport{Preset: t.b.w.preset, Reference: p.Expected, Plans: t.b.plans,
			Results: make(map[string]difftest.LevelResult, n)}
		for i, pl := range t.b.plans {
			rep.Results[pl.Key()] = results[i]
		}
		if o, key := rep.Detected(); o != difftest.OracleNone {
			v = difftest.Verdict{Seed: seed, Kind: difftest.VerdictDetection, Oracle: o, Attempts: 1, Plan: key, Program: ir.Fingerprint(m)}
		}
	} else if o := classicReport(t.b.w.preset, p.Expected, results).Detected(); o != difftest.OracleNone {
		v = difftest.Verdict{Seed: seed, Kind: difftest.VerdictDetection, Oracle: o, Attempts: 1}
	}
	t.tr.end(s)
	if cov != nil {
		v.Coverage = cov.Summary()
		t.covUnion.Merge(cov)
		t.covHits += cov.Total()
	}
	t.record(root, v)
}

func classicReport(preset, reference string, results []difftest.LevelResult) *difftest.Report {
	rep := &difftest.Report{Preset: preset, Reference: reference, Levels: make(map[difftest.BuildConfig]difftest.LevelResult, len(results))}
	for i, bc := range difftest.BuildConfigs {
		rep.Levels[bc] = results[i]
	}
	return rep
}

// record journals a verdict (on journaled workloads) and keeps its key.
func (t *traced) record(root int32, v difftest.Verdict) {
	if t.journal != nil {
		s := t.tr.begin("difftest.journal", root, v.Seed)
		err := t.journal.Append(v)
		t.tr.end(s)
		if err != nil {
			v.Kind = difftest.VerdictStageFailure
		}
	}
	t.keys = append(t.keys, keyOf(v))
}

// family runs one batched mutation family of count members from base:
// one generation, one verify, one compilation per build configuration
// and one interp.Compile per compiled configuration, shared by every
// member.
func (t *traced) family(base int64, count int) {
	root := t.tr.begin("seed", -1, base)
	defer t.tr.end(root)
	verdicts := make([]difftest.Verdict, count)
	for j := range verdicts {
		verdicts[j] = difftest.Verdict{Seed: base + int64(j), Kind: difftest.VerdictOK, Attempts: 1}
	}
	defer func() {
		for _, v := range verdicts {
			t.record(root, v)
		}
	}()
	p, err := t.generate(root, base, nil)
	if err != nil {
		for j := range verdicts {
			verdicts[j].Kind = difftest.VerdictStageFailure
		}
		return
	}
	s := t.tr.begin("difftest.family", root, base)
	pm, params := parameterize(p.Module)
	t.tr.end(s)

	// Reference runs: a member whose mutated inputs have no defined
	// behaviour is skipped.
	args := make([][]rtval.Value, count)
	refs := make([]string, count)
	live := make([]bool, count)
	s = t.tr.begin("interp", root, base)
	for j := range verdicts {
		args[j] = memberArgs(params, verdicts[j].Seed, j)
		in := dialects.NewCompiledReferenceInterpreter()
		in.MaxSteps = familyMaxSteps
		res, err := in.RunArgs(pm, "main", args[j])
		t.runs++
		if err != nil {
			verdicts[j].Kind = difftest.VerdictSkipped
			continue
		}
		refs[j], live[j] = res.Output, true
	}
	t.tr.end(s)

	results := make([][]difftest.LevelResult, count)
	for j := range results {
		results[j] = make([]difftest.LevelResult, len(difftest.BuildConfigs))
	}
	if verr := t.verify(root, base, pm); verr != nil {
		for j := range results {
			for i := range results[j] {
				results[j][i].CompileErr = verr
			}
		}
	} else {
		t.modules = append(t.modules, pm)
		cres := t.compile(root, base, pm, nil)
		progs := make([]*interp.CompiledProgram, len(cres))
		s = t.tr.begin("interp", root, base)
		for j := range verdicts {
			if !live[j] {
				continue
			}
			for i, c := range cres {
				if c.Err != nil {
					results[j][i].CompileErr = c.Err
					continue
				}
				if progs[i] == nil {
					cs := t.tr.begin("interp.engine_compile", s, base)
					progs[i] = interp.Compile(dialects.ExecutorRegistry(), c.Module)
					t.tr.end(cs)
					t.directCompiles++
				}
				ex := dialects.NewExecutor()
				ex.MaxSteps = familyMaxSteps
				ex.Metrics = t.interpM
				res, err := ex.RunProgramArgs(progs[i], "main", args[j])
				t.runs++
				if err != nil {
					results[j][i].RunErr = err
				} else {
					results[j][i].Output = res.Output
				}
			}
		}
		t.tr.end(s)
	}

	for j := range verdicts {
		if !live[j] {
			continue
		}
		s := t.tr.begin("difftest.compare", root, verdicts[j].Seed)
		if o := classicReport(t.b.w.preset, refs[j], results[j]).Detected(); o != difftest.OracleNone {
			verdicts[j].Kind, verdicts[j].Oracle = difftest.VerdictDetection, o
		}
		t.tr.end(s)
	}
}

// layerAgg is one span name's totals.
type layerAgg struct {
	busy, self time.Duration
	calls      int
	alloc      uint64
	perSeed    map[int64]time.Duration
}

func aggregate(spans []span) map[string]*layerAgg {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	aggs := make(map[string]*layerAgg)
	for i, s := range spans {
		a := aggs[s.Name]
		if a == nil {
			a = &layerAgg{perSeed: make(map[int64]time.Duration)}
			aggs[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.busy += d
		a.self += d - child[i]
		a.calls++
		a.alloc += s.Alloc
		a.perSeed[s.Seed] += d
	}
	return aggs
}

// seedMillis is the layer's per-seed latency sample in milliseconds.
func (a *layerAgg) seedMillis() []float64 {
	if a == nil {
		return nil
	}
	xs := make([]float64, 0, len(a.perSeed))
	for _, d := range a.perSeed {
		xs = append(xs, float64(d)/1e6)
	}
	return xs
}

// writeSpans writes the host facts and every span as JSON lines.
func writeSpans(path string, host map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(host); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
