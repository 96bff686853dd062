// Command perfbench is Ratte-Go's campaign benchmark. Each workload is
// a fuzzing campaign (generate, verify, compile, interpret, compare)
// timed in consecutive fixed-size chunks; the run checks every verdict
// and prints its metrics, then one JSON result line.
//
//	perfbench --workload ariths --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// runs an untraced campaign and then the same seeds through each
// layer's public functions with a span around every call, and prints
// the per-layer metrics. README.md explains the workloads and metrics.
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/interp"
)

// defaultSeed is the seed whose first chunk has a recorded golden
// report and verdict digest.
const defaultSeed = 1

// setupRuns is how many fresh processes time set-up; setup_s is their
// median.
const setupRuns = 31

// outDir receives journals, span files and the metrics dump; it is
// relative to the repository root and ignored by git.
const outDir = ".bench_build/perfbench"

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is the SHA-256 of a first chunk's ReportText and of its
// verdict keys.
type goldenEntry struct {
	Report   string `json:"report"`
	Verdicts string `json:"verdicts"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	vals              map[string]metric
	// use is what the measured campaign (or traced pass) did with the
	// caches, for the unused-cache warnings.
	use use
}

func (o *outcome) set(name string, v float64, unit string) {
	o.vals[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: ariths, linalg, plans or family")
	seed := flag.Int64("seed", defaultSeed, "benchmark seed; campaign seeds start at seed*1000000")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceMode := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
	probe := flag.Bool("setup-probe", false, "set up, test campaign seed 0 and exit (times set-up from a parent run)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceMode, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traceMode int, probe bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || traceMode != 0 && traceMode != 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	base := seed * seedStride
	b, err := newBench(w, outDir)
	if err != nil {
		return err
	}
	if probe {
		// The probe always tests seed 0, so that setup_s times set-up
		// rather than whichever program a run's first seed happens to be.
		_, _, err := b.campaign(0, max(w.family, 1), b.workers)
		return err
	}
	declared, err := loadDeclared("BENCHMARK.json", traceMode)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d (campaign seeds from %d, %d per chunk)\n",
		w.name, seed, seconds, traceMode, base, w.chunk)
	host := hostFacts()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s workers=%d\n",
		host["nproc"], host["gomaxprocs"], host["go"], runtime.GOOS, runtime.GOARCH, b.workers)

	var o *outcome
	if traceMode == 0 {
		o, err = measure(b, name, seed, seconds)
	} else {
		o, err = traceRun(b, seed, seconds, host)
	}
	if err != nil {
		return err
	}
	for _, warn := range o.use.warnings() {
		fmt.Fprintf(os.Stderr, "warning: %s on %s\n", warn, w.name)
	}
	for _, p := range o.problems {
		fmt.Println("FAILED CHECK:", p)
	}

	res := result{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metric, len(declared))}
	for _, d := range declared {
		v, ok := o.vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s: measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		}
		res.Metrics[d.Name] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared reads the metric list the result line must carry.
func loadDeclared(path string, traceMode int) ([]declaredMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if traceMode == 1 {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

func hostFacts() map[string]any {
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
}

// checkGolden compares a first chunk against its recorded digests.
func checkGolden(name string, seed int64, got goldenEntry) []string {
	fmt.Printf("first chunk: report sha256 %s, verdicts sha256 %s\n", got.Report, got.Verdicts)
	if seed != defaultSeed {
		return nil
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []string{"golden.json: " + err.Error()}
	}
	if want, ok := golden[name]; !ok || want != got {
		return []string{fmt.Sprintf("first chunk differs from golden.json (want report %s, verdicts %s)", want.Report, want.Verdicts)}
	}
	return nil
}

// timeSetup runs a fresh process that sets up the workload and tests
// campaign seed 0 (the family from seed 0), and returns its wall time.
func timeSetup(name string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--setup-probe")
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// measure is the untraced run: timed chunks, with a set-up probe
// after each of the first setupRuns chunks so that the probes sample
// the same host conditions as the chunks.
func measure(b *bench, name string, seed int64, seconds int) (*outcome, error) {
	var setup []float64
	probe := func(int64, []verdictKey) error {
		if len(setup) == setupRuns {
			return nil
		}
		d, err := timeSetup(name)
		setup = append(setup, d)
		return err
	}
	u0 := readUse()
	p, err := b.run(seed*seedStride, 1, time.Duration(seconds)*time.Second, probe)
	if err != nil {
		return nil, err
	}
	u := readUse().sub(u0)
	for len(setup) < setupRuns {
		if err := probe(0, nil); err != nil {
			return nil, err
		}
	}
	o := &outcome{attempted: p.seeds(), failed: p.failed, problems: p.problems, vals: make(map[string]metric), use: u}
	o.problems = append(o.problems, checkGolden(name, seed, p.golden)...)

	var rates, wallRates, stolen, cpus []float64
	var alloc uint64
	for _, c := range p.chunks {
		rates = append(rates, float64(c.seeds)/c.runWall().Seconds())
		wallRates = append(wallRates, float64(c.seeds)/c.wall.Seconds())
		stolen = append(stolen, c.stolen)
		cpus = append(cpus, float64(c.cpu)/1e6/float64(c.seeds))
		alloc += c.alloc
	}
	o.set("programs_per_s", median(rates), "1/s")
	o.set("cpu_ms_per_program", median(cpus), "ms")
	o.set("alloc_kb_per_program", float64(alloc)/1024/float64(p.seeds()), "KiB")
	o.set("peak_rss_mb", peakRSS()/(1<<20), "MiB")
	o.set("setup_s", median(setup), "s")

	fmt.Printf("chunks: %d of %d seeds, %.2fs engine wall\n", len(p.chunks), b.w.chunk, p.engineWall().Seconds())
	fmt.Printf("programs_per_s       %10.2f 1/s  (median of %d chunks; quartiles %.2f..%.2f)\n",
		o.vals["programs_per_s"].Value, len(rates), quantile(rates, 0.25), quantile(rates, 0.75))
	fmt.Printf("  uncorrected        %10.2f 1/s  (median over raw wall time; median steal share %.4f, max %.4f)\n",
		median(wallRates), median(stolen), quantile(stolen, 1))
	fmt.Printf("cpu_ms_per_program   %10.4f ms   (median of %d chunks; quartiles %.4f..%.4f)\n",
		o.vals["cpu_ms_per_program"].Value, len(cpus), quantile(cpus, 0.25), quantile(cpus, 0.75))
	fmt.Printf("alloc_kb_per_program %10.2f KiB  (%d seeds)\n", o.vals["alloc_kb_per_program"].Value, p.seeds())
	fmt.Printf("peak_rss_mb          %10.2f MiB\n", o.vals["peak_rss_mb"].Value)
	fmt.Printf("setup_s              %10.4f s    (median of %d fresh processes; min %.4f max %.4f)\n",
		o.vals["setup_s"].Value, len(setup), quantile(setup, 0), quantile(setup, 1))
	fmt.Printf("failed_frac          %10.4f      (%d of %d seeds)\n", ratio(float64(p.failed), float64(p.seeds())), p.failed, p.seeds())
	return o, nil
}

// use is the cumulative use of every cache and tier the campaign can
// engage.
type use struct {
	exec, src          interp.CacheStats
	pipeHits, pipeMiss uint64
}

func readUse() use {
	u := use{exec: dialects.ExecutorProgramCache().StatsDetail(), src: dialects.SourceProgramCache().StatsDetail()}
	u.pipeHits, u.pipeMiss, _ = compiler.PipelineCacheStats()
	return u
}

func (u use) sub(b use) use {
	d := func(x, y interp.CacheStats) interp.CacheStats {
		return interp.CacheStats{Hits: x.Hits - y.Hits, Misses: x.Misses - y.Misses, Evictions: x.Evictions - y.Evictions,
			CompileTime: x.CompileTime - y.CompileTime}
	}
	return use{exec: d(u.exec, b.exec), src: d(u.src, b.src), pipeHits: u.pipeHits - b.pipeHits, pipeMiss: u.pipeMiss - b.pipeMiss}
}

func (u use) add(b use) use {
	d := func(x, y interp.CacheStats) interp.CacheStats {
		return interp.CacheStats{Hits: x.Hits + y.Hits, Misses: x.Misses + y.Misses, Evictions: x.Evictions + y.Evictions,
			CompileTime: x.CompileTime + y.CompileTime}
	}
	return use{exec: d(u.exec, b.exec), src: d(u.src, b.src), pipeHits: u.pipeHits + b.pipeHits, pipeMiss: u.pipeMiss + b.pipeMiss}
}

// warnings names every cache whose use or hit counters stayed at zero.
func (u use) warnings() []string {
	var ws []string
	for _, c := range []struct {
		name         string
		hits, misses uint64
	}{
		{"executor ProgramCache", u.exec.Hits, u.exec.Misses},
		{"source ProgramCache", u.src.Hits, u.src.Misses},
		{"compiler pipeline cache (PipelineCacheStats)", u.pipeHits, u.pipeMiss},
	} {
		switch {
		case c.hits+c.misses == 0:
			ws = append(ws, c.name+" unused: 0 lookups")
		case c.hits == 0:
			ws = append(ws, fmt.Sprintf("%s never hit: 0 hits in %d lookups", c.name, c.misses))
		}
	}
	return ws
}

// largest is the layer with the largest busy time.
func largest(busy map[string]float64) string {
	names := make([]string, 0, len(busy))
	for n := range busy {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return busy[names[i]] > busy[names[j]] })
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

func spanPath(name string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
}
