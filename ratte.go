// Package ratte is the public API of Ratte-Go, a from-scratch Go
// reproduction of "Ratte: Fuzzing for Miscompilations in Multi-Level
// Compilers Using Composable Semantics" (ASPLOS 2025).
//
// Ratte couples two artefacts that validate each other (the paper's
// "harmonious cycle"):
//
//   - composable reference interpreters for MLIR-style dialects
//     (arith, func, scf, vector, tensor, linalg), assembled from
//     per-dialect semantic kernels; and
//   - semantics-guided program generators whose every extension is
//     evaluated incrementally, so generated programs are statically
//     valid and dynamically free of undefined behaviour by
//     construction.
//
// Those programs drive differential testing of a multi-level compiler
// (this module ships one, structurally mirroring the production MLIR
// pipeline, complete with the paper's eight re-injectable bugs), which
// is how miscompilations — not just crashes — become detectable.
//
// Typical use:
//
//	p, _ := ratte.Generate(ratte.GenConfig{Preset: "ariths", Size: 30, Seed: 1})
//	fmt.Print(ratte.PrintModule(p.Module))   // the program
//	fmt.Print(p.Expected)                    // its expected output
//
//	rep := ratte.Test(p.Module, p.Expected, "ariths", ratte.AllBugs())
//	if oracle := rep.Detected(); oracle != ratte.OracleNone {
//		fmt.Println("found a compiler bug via", oracle)
//	}
package ratte

import (
	"context"
	"net/http"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/conformance"
	"ratte/internal/dialects"
	"ratte/internal/difftest"
	"ratte/internal/faultinject"
	"ratte/internal/fleet"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/mlirsmith"
	"ratte/internal/mutate"
	"ratte/internal/reduce"
	"ratte/internal/telemetry"
	"ratte/internal/verify"
)

// Core IR types.
type (
	// Module is an IR module (a tree of operations, regions and blocks).
	Module = ir.Module
	// Operation is a single IR operation.
	Operation = ir.Operation
)

// Generation.
type (
	// GenConfig parameterises the semantics-guided generator.
	GenConfig = gen.Config
	// Program is a generated test case with its expected output.
	Program = gen.Program
	// SmithConfig parameterises the MLIRSmith baseline generator.
	SmithConfig = mlirsmith.Config
)

// Differential testing.
type (
	// Report is one program's differential-testing record.
	Report = difftest.Report
	// Oracle names the oracle that detected a difference.
	Oracle = difftest.Oracle
	// CampaignConfig drives a fuzzing campaign.
	CampaignConfig = difftest.CampaignConfig
	// CampaignResult summarises a campaign.
	CampaignResult = difftest.CampaignResult
	// Verdict is one seed's final, journaled campaign outcome.
	Verdict = difftest.Verdict
	// FaultSpec configures deterministic fault injection for a campaign.
	FaultSpec = faultinject.Spec
	// NetFaultSpec configures deterministic network fault injection
	// for a fleet worker's HTTP transport.
	NetFaultSpec = faultinject.NetSpec
	// NetFaultTransport is a seeded fault-injecting http.RoundTripper.
	NetFaultTransport = faultinject.Transport
	// Journal is an append-only campaign verdict log (see CreateJournal).
	Journal = difftest.Journal
	// BugSet selects injected compiler defects.
	BugSet = bugs.Set
	// BugID identifies one of the paper's Table 3 defects.
	BugID = bugs.ID
	// OptLevel is a compiler optimisation level (O0/O1/O2).
	OptLevel = compiler.OptLevel
)

// The oracles of the paper's §3.4.
const (
	OracleNone = difftest.OracleNone
	OracleNC   = difftest.OracleNC
	OracleDTO  = difftest.OracleDTO
	OracleDTR  = difftest.OracleDTR
)

// ParseModule parses the generic textual format.
func ParseModule(src string) (*Module, error) { return ir.Parse(src) }

// PrintModule renders a module in the generic textual format.
func PrintModule(m *Module) string { return ir.Print(m) }

// VerifyModule checks a module against the source-dialect static rules
// (the frontend verifier).
func VerifyModule(m *Module) error {
	return verify.Module(m, dialects.SourceSpecs())
}

// InterpResult is the outcome of reference interpretation.
type InterpResult = interp.Result

// Interpret runs the composable reference interpreter on a module,
// calling the entry function. It returns an error for statically broken
// modules, undefined behaviour or runtime traps (use IsUB/IsTrap to
// classify).
func Interpret(m *Module, entry string) (*InterpResult, error) {
	return dialects.NewReferenceInterpreter().Run(m, entry)
}

// IsUB reports whether an interpretation error stems from undefined
// behaviour.
func IsUB(err error) bool { return interp.IsUB(err) }

// IsTrap reports whether an interpretation error is a deterministic
// runtime trap.
func IsTrap(err error) bool { return interp.IsTrap(err) }

// Generate builds one statically-valid, UB-free program with the
// semantics-guided generator.
func Generate(cfg GenConfig) (*Program, error) { return gen.Generate(cfg) }

// GeneratePresets lists the generator presets (paper Table 2).
func GeneratePresets() []string { return gen.Presets() }

// GenerateSmith builds one program with the MLIRSmith-style baseline —
// syntactically valid only.
func GenerateSmith(cfg SmithConfig) (*Module, error) { return mlirsmith.Generate(cfg) }

// Compile lowers a module to the executable llvm level with the given
// preset pipeline, optimisation level and injected bugs (nil for the
// correct compiler).
func Compile(m *Module, preset string, level OptLevel, bugSet BugSet) (*Module, error) {
	c := &compiler.Compiler{Level: level, Bugs: bugSet}
	return c.Compile(m, preset)
}

// Execute runs a lowered module under the target-level executor (the
// mlir-cpu-runner stand-in).
func Execute(m *Module, entry string) (*InterpResult, error) {
	return dialects.NewExecutor().Run(m, entry)
}

// Test differentially tests one UB-free module across every build
// configuration of a (possibly bug-injected) compiler.
func Test(m *Module, expected, preset string, bugSet BugSet) *Report {
	return difftest.TestModule(m, expected, preset, bugSet)
}

// RunCampaign generates and differentially tests programs.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return difftest.RunCampaign(cfg)
}

// RunCampaignParallel is RunCampaign across worker goroutines, with
// results deterministic regardless of worker count.
func RunCampaignParallel(cfg CampaignConfig, workers int) (*CampaignResult, error) {
	return difftest.RunCampaignParallel(cfg, workers)
}

// RunCampaignCtx is RunCampaign under a caller context: cancellation
// stops the campaign after the in-flight seed and returns the partial,
// journaled result with ctx.Err().
func RunCampaignCtx(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return difftest.RunCampaignCtx(ctx, cfg)
}

// RunCampaignParallelCtx is RunCampaignParallel under a caller context.
func RunCampaignParallelCtx(ctx context.Context, cfg CampaignConfig, workers int) (*CampaignResult, error) {
	return difftest.RunCampaignParallelCtx(ctx, cfg, workers)
}

// CreateJournal starts a fresh campaign journal at path.
func CreateJournal(path string, cfg CampaignConfig) (*Journal, error) {
	return difftest.CreateJournal(path, cfg)
}

// OpenJournalForResume reads a campaign journal (recovering a torn
// final line) and returns it reopened for appending together with the
// recorded verdicts for CampaignConfig.Resumed.
func OpenJournalForResume(path string, cfg CampaignConfig) (*Journal, map[int64]Verdict, error) {
	return difftest.OpenJournalForResume(path, cfg)
}

// CampaignReport renders a campaign result as the canonical
// deterministic text summary.
func CampaignReport(res *CampaignResult) string { return difftest.ReportText(res) }

// ReduceModule shrinks a module while pred keeps holding.
func ReduceModule(m *Module, pred func(*Module) bool) *Module {
	return reduce.Module(m, pred)
}

// Mutate applies up to n semantics-preserving mutations to a clone of m
// (metamorphic testing: a compiled mutant must behave like the compiled
// original). Returns the mutant and the rule names applied.
func Mutate(m *Module, seed int64, n int) (*Module, []string) {
	return mutate.Mutate(m, seed, n)
}

// Plan fuzzing: the phase-ordering axis. A Plan is one legal pass
// pipeline; SamplePlans draws seeded random legal plans around the
// preset's mandatory lowering skeleton, and a campaign with
// CampaignConfig.Plans set (the -fuzz-pipelines flag) tests every
// program under each of them through a shared prefix tree.
type (
	// Plan is one compilation pass plan (preset + ordered pass list).
	Plan = compiler.Plan
	// PassMeta is one pass's plan constraints (mandatory stage,
	// requires/invalidated-by, occurrence cap, idempotence).
	PassMeta = compiler.PassMeta
	// PlanReport is one program's differential record across a plan set.
	PlanReport = difftest.PlanReport
)

// OracleDTP is the cross-plan differential oracle (two legal plans
// over the same program disagree).
const OracleDTP = difftest.OracleDTP

// PassMetadata returns a pass's plan constraints; ok is false for
// unknown passes.
func PassMetadata(name string) (PassMeta, bool) { return compiler.PassMetadata(name) }

// PlanSkeleton returns a preset's mandatory lowering stages in order —
// the minimal legal plan.
func PlanSkeleton(preset string) ([]string, error) { return compiler.PlanSkeleton(preset) }

// SamplePlans draws n distinct legal plans for a preset from a seeded
// sampler; plan 0 is always the bare skeleton.
func SamplePlans(preset string, n int, seed int64) ([]Plan, error) {
	return compiler.SamplePlans(preset, n, seed)
}

// ValidatePlan checks a plan against the pass-metadata registry
// (skeleton completeness and order, occurrence caps, requires/
// invalidated-by constraints, fused pairs). It is the lint behind the
// sampler's legality guarantee.
func ValidatePlan(p Plan) error { return compiler.ValidatePlan(p) }

// ShrinkPlan greedily minimizes a plan while pred keeps holding;
// mandatory stages are never dropped, so every candidate is legal.
func ShrinkPlan(p Plan, pred func(Plan) bool) Plan { return compiler.ShrinkPlan(p, pred) }

// TestPlans differentially tests one UB-free module under every plan
// of a (possibly bug-injected) compiler build, sharing common pipeline
// prefixes.
func TestPlans(m *Module, expected string, plans []Plan, bugSet BugSet) *PlanReport {
	return difftest.TestModulePlans(m, expected, plans, bugSet)
}

// ReduceProgramPlan minimizes a failing (program, plan) pair on both
// axes while pred keeps holding.
func ReduceProgramPlan(m *Module, p Plan, pred func(*Module, Plan) bool) (*Module, Plan) {
	return reduce.ProgramPlan(m, p, pred)
}

// Conformance: the property-testing harness that keeps the substrate's
// own oracles trustworthy (find → minimize → regress).
type (
	// ConformanceOracle is one property over modules: generate (or
	// take) a module, check the property, report a structured
	// counterexample.
	ConformanceOracle = conformance.Oracle
	// ConformanceConfig drives a conformance run (trial count, seed
	// schedule, shrinking, corpus persistence).
	ConformanceConfig = conformance.Config
	// ConformanceResult summarises a conformance run.
	ConformanceResult = conformance.Result
	// Counterexample is a minimized property violation.
	Counterexample = conformance.Counterexample
	// Regression is a persisted counterexample in the replayable
	// corpus under testdata/regressions/.
	Regression = conformance.Regression
)

// ConformanceOracles returns the standard oracle battery: print/parse
// round-trip, verifier idempotence, per-pass-prefix semantic
// equivalence (every preset × optimisation level), metamorphic mutation
// equivalence, correct-build differential testing, serial-vs-parallel
// campaign agreement, and the plan-legality and plan-equivalence
// properties of the plan fuzzer.
func ConformanceOracles() []ConformanceOracle { return conformance.StandardOracles() }

// ConformanceOracleNames lists the standard oracles' names, sorted.
func ConformanceOracleNames() []string { return conformance.OracleNames() }

// LookupConformanceOracle reconstructs an oracle from its name (e.g.
// "prefix-equivalence/tensor/O2").
func LookupConformanceOracle(name string) (ConformanceOracle, error) {
	return conformance.Lookup(name)
}

// RunConformance drives one oracle over a deterministic seed schedule,
// auto-shrinking and (optionally) persisting counterexamples.
func RunConformance(o ConformanceOracle, cfg ConformanceConfig) (*ConformanceResult, error) {
	return conformance.Run(o, cfg)
}

// ReplayRegressions re-checks every stored regression under dir,
// returning the corpus and any violations.
func ReplayRegressions(dir string) ([]*Regression, []error) {
	return conformance.ReplayCorpus(dir)
}

// Observability: the campaign telemetry layer (metrics registry, stage
// tracing, live introspection). Attaching telemetry never changes a
// campaign's results — reports are byte-identical with it on or off.
type (
	// CampaignTelemetry instruments one campaign; attach it via
	// CampaignConfig.Telemetry and export via its Registry.
	CampaignTelemetry = difftest.CampaignTelemetry
	// MetricsRegistry holds named counters, gauges and histograms and
	// renders them as Prometheus text or a JSON snapshot.
	MetricsRegistry = telemetry.Registry
)

// NewCampaignTelemetry builds the campaign instrument bundle on reg (a
// fresh private registry when reg is nil).
func NewCampaignTelemetry(reg *MetricsRegistry) *CampaignTelemetry {
	return difftest.NewCampaignTelemetry(reg)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// ServeMetrics starts an HTTP introspection endpoint (Prometheus
// /metrics, JSON /debug/vars, the pprof suite) on addr over reg; close
// the returned server when done.
func ServeMetrics(addr string, reg *MetricsRegistry) (*telemetry.Server, error) {
	return telemetry.Serve(addr, reg)
}

// NoBugs returns the correct-compiler selection.
func NoBugs() BugSet { return bugs.None() }

// AllBugs returns every Table 3 defect enabled.
func AllBugs() BugSet { return bugs.All() }

// Bugs returns a selection with exactly the given defects enabled.
func Bugs(ids ...BugID) BugSet { return bugs.Only(ids...) }

// BugTable returns the paper's Table 3 inventory.
func BugTable() []bugs.Info { return bugs.Table() }

// SupportedOps returns the source-dialect operation inventory (the
// paper's 43 operations across core dialects).
func SupportedOps() []string { return dialects.SupportedSourceOps() }

// Fleet: the distributed campaign layer (internal/fleet). A
// coordinator partitions a campaign's seed space into shards and
// leases them over HTTP to worker processes; the merged report is
// byte-identical to a single-process run of the same configuration.
type (
	// FleetCoordinatorConfig configures a campaign coordinator.
	FleetCoordinatorConfig = fleet.CoordinatorConfig
	// FleetCoordinator serves shard leases and merges verdict streams.
	FleetCoordinator = fleet.Coordinator
	// FleetWorkerConfig configures one shard worker.
	FleetWorkerConfig = fleet.WorkerConfig
	// FleetWorkerStats summarises one worker's run.
	FleetWorkerStats = fleet.WorkerStats
)

// NewFleetCoordinator partitions a campaign into shards and prepares
// the fleet control plane; Start it on an address, then Wait for the
// merged result.
func NewFleetCoordinator(cfg FleetCoordinatorConfig) (*FleetCoordinator, error) {
	return fleet.NewCoordinator(cfg)
}

// RunFleetWorker leases and runs shards from a coordinator until the
// campaign completes or ctx is cancelled.
func RunFleetWorker(ctx context.Context, cfg FleetWorkerConfig) (FleetWorkerStats, error) {
	return fleet.RunWorker(ctx, cfg)
}

// NewNetFaultTransport wraps an http.RoundTripper (nil = the default
// transport) with seeded, deterministic network fault injection —
// refused connections, delays, injected 5xx, torn bodies, duplicated
// deliveries — for chaos-testing fleet workers.
func NewNetFaultTransport(spec NetFaultSpec, inner http.RoundTripper) *NetFaultTransport {
	return faultinject.NewTransport(spec, inner)
}

// RunCampaignRange runs the seed-index window [first, first+count) of
// a campaign and returns its verdicts in seed order — the worker half
// of a distributed campaign.
func RunCampaignRange(ctx context.Context, cfg CampaignConfig, first, count, workers int) ([]Verdict, error) {
	return difftest.RunCampaignRange(ctx, cfg, first, count, workers)
}

// CampaignFingerprint renders the configuration fingerprint a journal
// stores on line 1 and a fleet registration validates against.
func CampaignFingerprint(cfg CampaignConfig) ([]byte, error) {
	return difftest.CampaignFingerprint(cfg)
}
