// The fault-isolated per-seed pipeline: generate → verify → compile →
// interpret → compare, each stage guarded against panics, the whole
// attempt bounded by a per-program wall-clock budget, with bounded
// retry for transient (injected) failures. Every campaign runs its
// seeds through this file, which is what makes verdicts independent of
// scheduling: everything here depends only on (config, seed).
package difftest

import (
	"context"
	"errors"
	"time"

	"ratte/internal/compiler"
	"ratte/internal/coverage"
	"ratte/internal/dialects"
	"ratte/internal/faultinject"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/verify"
)

// DefaultRetryBackoff is the base delay between attempts of a seed
// that failed transiently (doubled per retry) when CampaignConfig
// leaves RetryBackoff zero.
const DefaultRetryBackoff = time.Millisecond

// seedOutcome is everything one seed's pipeline produced.
type seedOutcome struct {
	verdict   Verdict
	detection *Detection
	// genErr is a non-panic generation failure; it aborts the whole
	// campaign exactly as it always has (a broken generator is a bug
	// in the fuzzer, not in the compiler under test).
	genErr error
	// aborted means the campaign context was cancelled mid-seed; the
	// seed has no verdict and the engine should drain and stop.
	aborted bool
}

// seedFailure is the outcome of a seed whose one attempt ended in a
// contained stage failure: quarantined, with no retry.
func seedFailure(seed int64, sf *StageFailure) seedOutcome {
	return seedOutcome{verdict: Verdict{
		Seed: seed, Kind: VerdictStageFailure, Failure: sf,
		Attempts: 1, Quarantined: true,
	}}
}

// generateStage produces the seed's program with panic containment.
// Generation runs outside the per-program budget and the fault
// injector: the generator is our own deterministic code, and a
// contained panic here is a generator bug worth a verdict of its own.
// cov is the seed's coverage map (nil when coverage is off).
func generateStage(cfg *CampaignConfig, seed int64, cov *coverage.Map) (p *gen.Program, sf *StageFailure, err error) {
	t0 := cfg.Telemetry.stageStart()
	sf = guard(StageGenerate, seed, nil, func() {
		p, err = gen.Generate(gen.Config{
			Preset: cfg.Preset, Size: cfg.Size, Seed: seed,
			Metrics:  cfg.Telemetry.genMetrics(),
			Coverage: cov,
		})
	})
	if sf != nil {
		p, err = nil, nil
	}
	cfg.Telemetry.stageDone(seed, StageGenerate, t0, spanOutcome(sf, err))
	return p, sf, err
}

// spanOutcome classifies a stage execution for its span record.
func spanOutcome(sf *StageFailure, err error) string {
	switch {
	case sf != nil && sf.Injected:
		return "injected"
	case sf != nil:
		return "panic"
	case err != nil:
		return "error"
	}
	return "ok"
}

// attemptResult is one attempt's outcome, before retry accounting.
type attemptResult struct {
	verdict   Verdict
	detection *Detection
	// transient marks failures worth retrying: injected faults, and
	// timeouts that an injected delay plausibly caused.
	transient bool
	aborted   bool
}

// testSeed differentially tests one generated program, retrying
// transient failures up to cfg.MaxRetries with exponential backoff and
// quarantining seeds that never produce a clean attempt. One injector
// serves all attempts, so retries see fresh fault decisions (site
// occurrence counters advance) — the model of a transient failure.
func testSeed(ctx context.Context, cfg *CampaignConfig, seed int64, prog *gen.Program, cov *coverage.Map) seedOutcome {
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(cfg.Faults.ForSeed(seed))
		if cfg.Telemetry != nil {
			inj.SetObserver(cfg.Telemetry.onFault)
		}
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	for attempt := 1; ; attempt++ {
		out := testOnce(ctx, cfg, seed, prog, inj, cov)
		if out.aborted {
			return seedOutcome{aborted: true}
		}
		if !out.transient || attempt > cfg.MaxRetries {
			v := out.verdict
			v.Attempts = attempt
			v.Faults = inj.Hits()
			if v.Kind == VerdictStageFailure || v.Kind == VerdictTimeout {
				v.Quarantined = true
			}
			// The summary spans every attempt (retries are themselves
			// deterministic per seed), so the verdict's coverage is a
			// pure function of (config, seed).
			v.Coverage = cov.Summary()
			return seedOutcome{verdict: v, detection: out.detection}
		}
		time.Sleep(backoff << (attempt - 1))
	}
}

// testOnce is one guarded, deadline-bounded attempt: the verify,
// compile, interpret and compare stages of TestModule (TestModulePlans
// in plan mode), each under panic containment, with the per-program
// context threaded through the compiler's pass pipeline and the
// executor.
func testOnce(ctx context.Context, cfg *CampaignConfig, seed int64, prog *gen.Program, inj *faultinject.Injector, cov *coverage.Map) attemptResult {
	hitsBefore := inj.Hits()
	pctx := ctx
	cancel := func() {}
	if cfg.Timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
	}
	defer cancel()

	m := prog.Module
	fail := func(sf *StageFailure) attemptResult {
		if ctx.Err() != nil && !sf.Injected {
			return attemptResult{aborted: true}
		}
		return attemptResult{
			verdict:   Verdict{Seed: seed, Kind: VerdictStageFailure, Failure: sf},
			transient: sf.Injected,
		}
	}

	// Verify stage. A verification error is not a stage failure: it is
	// the wrong-rejection half of the NC oracle, recorded per target
	// exactly as CompileConfigs and CompilePlans report it.
	var verr error
	t0 := cfg.Telemetry.stageStart()
	if sf := guard(StageVerify, seed, m, func() {
		verr = verify.Module(m, dialects.SourceSpecs())
	}); sf != nil {
		cfg.Telemetry.stageDone(seed, StageVerify, t0, spanOutcome(sf, nil))
		return fail(sf)
	}
	cfg.Telemetry.stageDone(seed, StageVerify, t0, spanOutcome(nil, verr))

	var levels []LevelResult
	if verr != nil {
		levels = rejectedLevels(cfg, verr)
	} else {
		// Compile stage: the shared-prefix compilation of TestModule,
		// minus the verification already done above. The targets are
		// the sampled plans in plan mode, the build configurations
		// otherwise.
		opts := &compiler.Options{Bugs: cfg.Bugs, Ctx: pctx, Faults: inj, SkipVerify: true, Coverage: cov}
		var outs []compiler.ConfigResult
		tc := cfg.Telemetry.stageStart()
		if sf := guard(StageCompile, seed, m, func() {
			if len(cfg.Plans) > 0 {
				outs = compiler.CompilePlansOpts(m, opts, cfg.Plans)
			} else {
				outs = compiler.CompileConfigsOpts(m, cfg.Preset, opts, BuildConfigs)
			}
		}); sf != nil {
			cfg.Telemetry.stageDone(seed, StageCompile, tc, spanOutcome(sf, nil))
			return fail(sf)
		}
		cfg.Telemetry.stageDone(seed, StageCompile, tc, "ok")
		// Interpret stage: run each successfully compiled target.
		ti := cfg.Telemetry.stageStart()
		if sf := guard(StageInterpret, seed, m, func() {
			levels = runLowered(outs, nil, func(ex *interp.Interpreter) {
				ex.Ctx = pctx
				ex.Faults = inj
				ex.Metrics = cfg.Telemetry.interpMetrics()
				ex.Coverage = cov
			})
		}); sf != nil {
			cfg.Telemetry.stageDone(seed, StageInterpret, ti, spanOutcome(sf, nil))
			return fail(sf)
		}
		cfg.Telemetry.stageDone(seed, StageInterpret, ti, "ok")
	}

	// Classification sweep: injected errors and expired budgets landed
	// in the per-target results as CompileErr/RunErr; they must become
	// stage-failure/timeout verdicts, not masquerade as NC detections.
	var injectedErr error
	var injectedStage Stage
	timedOut := false
	for _, lr := range levels {
		if e := lr.CompileErr; e != nil {
			if faultinject.IsInjected(e) && injectedErr == nil {
				injectedErr, injectedStage = e, StageCompile
			}
			if errors.Is(e, context.DeadlineExceeded) || errors.Is(e, context.Canceled) {
				timedOut = true
			}
		}
		if e := lr.RunErr; e != nil {
			if faultinject.IsInjected(e) && injectedErr == nil {
				injectedErr, injectedStage = e, StageInterpret
			}
			if errors.Is(e, context.DeadlineExceeded) || errors.Is(e, context.Canceled) {
				timedOut = true
			}
		}
	}
	if ctx.Err() != nil {
		// The campaign itself was cancelled (signal, StopAtFirst):
		// whatever this attempt observed is an artifact of shutdown.
		return attemptResult{aborted: true}
	}
	if injectedErr != nil {
		return attemptResult{
			verdict: Verdict{Seed: seed, Kind: VerdictStageFailure, Failure: &StageFailure{
				Stage:    injectedStage,
				Seed:     seed,
				Reason:   injectedErr.Error(),
				Module:   safePrint(m),
				Injected: true,
			}},
			transient: true,
		}
	}
	if timedOut {
		return attemptResult{
			verdict: Verdict{Seed: seed, Kind: VerdictTimeout},
			// A timeout during a fault-injected attempt (delays!) is
			// worth retrying; a clean program that blows its budget
			// will blow it again.
			transient: inj.Hits() > hitsBefore,
		}
	}

	v, det, sf := compareStage(cfg, seed, m, prog.Expected, levels)
	if sf != nil {
		return fail(sf)
	}
	return attemptResult{verdict: v, detection: det}
}

// runLowered runs every lowered module of outs on args and returns the
// per-target results in order; a target whose compilation failed keeps
// its compile error. setup, when non-nil, configures each executor.
func runLowered(outs []compiler.ConfigResult, args []rtval.Value, setup func(*interp.Interpreter)) []LevelResult {
	levels := make([]LevelResult, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			levels[i].CompileErr = out.Err
			continue
		}
		ex := dialects.NewExecutor()
		if setup != nil {
			setup(ex)
		}
		res, err := ex.RunArgs(out.Module, "main", args)
		if err != nil {
			levels[i].RunErr = err
		} else {
			levels[i].Output = res.Output
		}
	}
	return levels
}

// rejectedLevels records a frontend rejection at every target of the
// campaign: the wrong-rejection half of the NC oracle.
func rejectedLevels(cfg *CampaignConfig, verr error) []LevelResult {
	n := len(BuildConfigs)
	if len(cfg.Plans) > 0 {
		n = len(cfg.Plans)
	}
	levels := make([]LevelResult, n)
	for i := range levels {
		levels[i].CompileErr = verr
	}
	return levels
}

// compareStage runs the oracles over one program's per-target results
// (cfg.Plans in plan mode, BuildConfigs otherwise) and returns its
// verdict — Attempts left to the caller — and, for a detection, the
// detection record.
func compareStage(cfg *CampaignConfig, seed int64, m *ir.Module, expected string, levels []LevelResult) (Verdict, *Detection, *StageFailure) {
	var oracle Oracle
	var plan string
	var rep *Report
	var prep *PlanReport
	t0 := cfg.Telemetry.stageStart()
	sf := guard(StageCompare, seed, m, func() {
		if len(cfg.Plans) > 0 {
			prep = planReportOf(cfg.Preset, expected, cfg.Plans, levels)
			oracle, plan = prep.Detected()
		} else {
			rep = reportOf(cfg.Preset, expected, levels)
			oracle = rep.Detected()
		}
	})
	cfg.Telemetry.stageDone(seed, StageCompare, t0, spanOutcome(sf, nil))
	switch {
	case sf != nil:
		return Verdict{}, nil, sf
	case oracle == OracleNone:
		return Verdict{Seed: seed, Kind: VerdictOK}, nil, nil
	}
	v := Verdict{Seed: seed, Kind: VerdictDetection, Oracle: oracle, Plan: plan}
	if prep != nil {
		v.Program = ir.Fingerprint(m)
	}
	return v, &Detection{
		Seed:       seed,
		Oracle:     oracle,
		Program:    m,
		Expected:   expected,
		Report:     rep,
		Plan:       plan,
		PlanReport: prep,
	}, nil
}

// resumedDetection reconstructs the Detection entry for a seed whose
// verdict was replayed from a journal. The program and report are not
// journaled — they are regenerable from the seed — so only the fields
// the final report uses are populated.
func resumedDetection(v Verdict) *Detection {
	return &Detection{Seed: v.Seed, Oracle: v.Oracle, Plan: v.Plan}
}
