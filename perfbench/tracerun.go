package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/difftest"
)

// reportedPasses are the passes with per-pass metrics in BENCHMARK.json.
var reportedPasses = []string{
	"canonicalize", "cse", "remove-dead-values", "arith-expand",
	"one-shot-bufferize", "convert-linalg-to-loops", "convert-scf-to-cf",
	"convert-arith-to-llvm", "convert-vector-to-llvm", "convert-func-to-llvm",
}

// traceRun interleaves three passes chunk by chunk: an untraced
// campaign (plus a serial one on a parallel workload); the traced pass
// over the next chunk's seeds, followed by an untraced campaign over
// those seeds whose verdicts the traced ones must equal; and a
// pass-by-pass replay of the traced chunk's compilation. The traced
// seeds are fresh to the process, as in a campaign: the executor's
// program cache admits a module on its third sighting, so tracing
// seeds a campaign has just run would turn its misses into hits.
// Interleaving puts host noise on the traced and untraced sides alike.
func traceRun(b *bench, seed int64, seconds int, host map[string]any) (*outcome, error) {
	base := seed * seedStride
	jobs, err := b.jobs()
	if err != nil {
		return nil, err
	}
	t := newTraced(b)
	if b.w.journal {
		j, err := difftest.CreateJournal(filepath.Join(outDir, b.w.name+"-traced-journal.jsonl"), b.config(base, 0))
		if err != nil {
			return nil, err
		}
		t.journal = j
	}
	r := newReplayer(&compiler.Options{Bugs: b.bugSet})
	o := &outcome{vals: make(map[string]metric)}
	var wall, untraced time.Duration
	var gc gcStats
	side := &pass{} // failures outside the timed chunks
	after := func(first int64, keys []verdictKey) error {
		// The traced pass is serial, so on a parallel workload the
		// tracing overhead is measured against a serial campaign.
		if b.workers > 1 {
			serial, err := b.runChunk(first, 1)
			if err != nil {
				return err
			}
			untraced += serial.cost.wall
			o.attempted += len(serial.keys)
			side.note(serial.failed, serial.problems)
			if bad := mismatches(serial.keys, keys); bad > 0 {
				side.note(bad, []string{fmt.Sprintf("serial campaign differs from parallel at %d seeds from %d", bad, first)})
			}
		}

		next := first + int64(b.w.chunk)
		u0, g0 := readUse(), readGC()
		from := len(t.keys)
		start := time.Now()
		if b.w.family > 1 {
			for i := 0; i < b.w.chunk; i += b.w.family {
				t.family(next+int64(i), b.w.family)
			}
		} else {
			for i := 0; i < b.w.chunk; i++ {
				t.seed(next + int64(i))
			}
		}
		wall += time.Since(start)
		o.use = o.use.add(readUse().sub(u0))
		g1 := readGC()
		gc.cycles += g1.cycles - g0.cycles
		gc.gcCPU += g1.gcCPU - g0.gcCPU
		gc.allCPU += g1.allCPU - g0.allCPU

		want, err := b.runChunk(next, b.workers)
		if err != nil {
			return err
		}
		o.attempted += len(want.keys)
		side.note(want.failed, want.problems)
		if bad := mismatches(t.keys[from:], want.keys); bad > 0 {
			side.note(bad, []string{fmt.Sprintf("traced verdict digest %s differs from untraced %s at %d seeds from %d",
				digest(t.keys[from:]), digest(want.keys), bad, next)})
		}
		for _, m := range t.modules {
			if err := r.module(m, jobs); err != nil {
				return err
			}
		}
		t.modules = t.modules[:0]
		return nil
	}
	camp, err := b.run(base, 2, time.Duration(seconds)*time.Second, after)
	if err != nil {
		return nil, err
	}
	o.attempted += camp.seeds() + len(t.keys)
	o.failed += camp.failed + side.failed
	o.problems = append(append(camp.problems, side.problems...), checkGolden(b.w.name, seed, camp.golden)...)
	if b.workers == 1 {
		untraced = camp.engineWall()
	}
	var journalBytes int64
	if t.journal != nil {
		_, journalBytes = t.journal.Written()
		if err := t.journal.Close(); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(spanPath(b.w.name, seed), host, t.tr.spans); err != nil {
		return nil, err
	}

	aggs := aggregate(t.tr.spans)
	get := func(name string) *layerAgg {
		if a := aggs[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	busy := make(map[string]float64)
	var layerBusy float64
	for _, name := range layerSpans {
		busy[name] = get(name).busy.Seconds()
		layerBusy += busy[name]
	}
	wallS := wall.Seconds()
	perCall := func(a *layerAgg) float64 { return ratio(float64(a.alloc)/1024, float64(a.calls)) }
	layer := func(prefix, name string, latency bool) {
		a := get(name)
		o.set(prefix+".busy_s", a.busy.Seconds(), "s")
		o.set(prefix+".share", ratio(a.busy.Seconds(), wallS), "ratio")
		if latency {
			ms := a.seedMillis()
			o.set(prefix+".ms_p50", quantile(ms, 0.5), "ms")
			o.set(prefix+".ms_p99", quantile(ms, 0.99), "ms")
			o.set(prefix+".alloc_kb_per_call", perCall(a), "KiB")
		}
	}
	layer("gen", "gen", true)
	o.set("gen.ops_per_program", ratio(float64(t.ops), float64(t.genCalls)), "ops")
	layer("verify", "verify", false)
	layer("compiler", "compiler", true)
	o.set("compiler.outputs_per_program", ratio(float64(t.outputs), float64(t.compiles)), "count")
	o.set("compiler.rejects", float64(t.rejects), "count")
	o.set("compiler.clone.busy_s", r.clone.Seconds(), "s")
	o.set("compiler.replay.busy_s", r.total().Seconds(), "s")
	o.set("compiler.naive.busy_s", r.naive.Seconds(), "s")
	plans := make([]compiler.Plan, len(jobs))
	steps := 0
	for i, j := range jobs {
		plans[i] = compiler.Plan{Preset: b.w.preset, Passes: j}
		steps += len(j)
	}
	o.set("compiler.prefix_saved_frac", 1-ratio(float64(compiler.PlanTreeNodes(plans)), float64(steps)), "ratio")
	for _, name := range reportedPasses {
		ps := r.passes[name]
		if ps == nil {
			ps = &passStat{}
		}
		o.set("compiler.pass."+name+".busy_s", ps.busy.Seconds(), "s")
		o.set("compiler.pass."+name+".ops_out", ratio(float64(ps.ops), float64(ps.ok)), "ops")
	}

	layer("interp", "interp", true)
	o.set("interp.self_s", get("interp").self.Seconds(), "s")
	o.set("interp.runs", float64(t.runs), "count")
	use := o.use
	lookups := use.exec.Hits + use.exec.Misses + use.src.Hits + use.src.Misses
	o.set("interp.engine_compiles", float64(use.exec.Misses+use.src.Misses+uint64(t.directCompiles)), "count")
	o.set("interp.engine_compile_s", (use.exec.CompileTime + use.src.CompileTime + get("interp.engine_compile").busy).Seconds(), "s")
	o.set("interp.cache_hit_ratio", ratio(float64(use.exec.Hits+use.src.Hits), float64(lookups)), "ratio")
	o.set("interp.cache_lookups", float64(lookups), "count")

	campWall := camp.engineWall().Seconds()
	o.set("difftest.compare.busy_s", busy["difftest.compare"], "s")
	o.set("difftest.family.busy_s", busy["difftest.family"], "s")
	o.set("difftest.journal.busy_s", busy["difftest.journal"], "s")
	o.set("difftest.journal.bytes_per_seed", ratio(float64(journalBytes), float64(len(t.keys))), "B")
	o.set("difftest.unattributed_s", campWall*float64(b.workers)-layerBusy, "s")
	o.set("difftest.worker_util", ratio(layerBusy, campWall*float64(b.workers)), "ratio")

	o.set("coverage.sites", float64(t.covUnion.Sites()), "count")
	o.set("coverage.hits_per_program", ratio(float64(t.covHits), float64(len(t.keys))), "count")
	o.set("runtime.gc_cpu_frac", ratio(gc.gcCPU, gc.allCPU), "ratio")
	o.set("runtime.gc_cycles", float64(gc.cycles), "count")
	o.set("trace.overhead_frac", ratio(wallS, untraced.Seconds())-1, "ratio")
	o.set("trace.seeds", float64(len(t.keys)), "count")
	if t.interpM.Runs.Value() > 0 && t.interpM.CompiledRuns.Value() == 0 {
		fmt.Printf("note: compiled execution tier never ran (0 of %d executor runs)\n", t.interpM.Runs.Value())
	}

	printLayers(aggs, wallS, len(t.keys))
	fmt.Printf("traced wall %.3fs over %d seeds; untraced %.3fs (%s); overhead %+.2f%%\n",
		wallS, len(t.keys), untraced.Seconds(), serialNote(b.workers), 100*o.vals["trace.overhead_frac"].Value)
	fmt.Printf("campaign wall %.3fs x %d workers; layer busy %.3fs; worker_util %.3f; unattributed %.3fs\n",
		campWall, b.workers, layerBusy, o.vals["difftest.worker_util"].Value, o.vals["difftest.unattributed_s"].Value)
	fmt.Printf("compiler: busy %.3fs (shared prefix tree, measured) | replay %.3fs (%d pass runs, %d clones %.3fs) | naive per-config estimate %.3fs (%d pass runs)\n",
		busy["compiler"], r.total().Seconds(), r.nodes, r.clones, r.clone.Seconds(), r.naive.Seconds(), r.steps)
	printPasses(r)
	fmt.Printf("interp: %d runs, %d engine compiles (%.3fs); cache %d hits of %d lookups\n",
		t.runs, int(o.vals["interp.engine_compiles"].Value), o.vals["interp.engine_compile_s"].Value,
		use.exec.Hits+use.src.Hits, lookups)
	fmt.Printf("largest share: %s\n", largest(busy))
	fmt.Printf("spans: %d written to %s\n", len(t.tr.spans), spanPath(b.w.name, seed))
	return o, nil
}

func serialNote(workers int) string {
	if workers > 1 {
		return "serial campaign over the same seeds"
	}
	return "campaign"
}

// mismatches counts the positions at which two verdict sequences differ.
func mismatches(a, b []verdictKey) int {
	bad := abs(len(a) - len(b))
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			bad++
		}
	}
	return bad
}

func printLayers(aggs map[string]*layerAgg, wall float64, seeds int) {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %9s %9s %7s %8s %9s %9s %11s\n", "span", "busy_s", "self_s", "share", "calls", "p50_ms", "p99_ms", "KiB/call")
	for _, n := range names {
		a := aggs[n]
		ms := a.seedMillis()
		fmt.Printf("%-22s %9.4f %9.4f %7.4f %8d %9.4f %9.4f %11.2f\n", n, a.busy.Seconds(), a.self.Seconds(),
			ratio(a.busy.Seconds(), wall), a.calls, quantile(ms, 0.5), quantile(ms, 0.99), ratio(float64(a.alloc)/1024, float64(a.calls)))
	}
	fmt.Printf("(latencies per seed over %d seeds; per family on the family workload)\n", seeds)
}

func printPasses(r *replayer) {
	names := make([]string, 0, len(r.passes))
	for n, ps := range r.passes {
		if ps.runs > 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return r.passes[names[i]].busy > r.passes[names[j]].busy })
	for _, n := range names {
		ps := r.passes[n]
		fmt.Printf("  pass %-24s %8.4fs %6d runs %8.1f ops out\n", n, ps.busy.Seconds(), ps.runs, ratio(float64(ps.ops), float64(ps.ok)))
	}
}
