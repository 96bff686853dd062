// Batched campaign execution over mutation families (ROADMAP item 4's
// third layer): instead of generating a fresh program per seed, the
// campaign partitions its seed space into families of FamilySize
// consecutive seeds. Each family generates ONE base program from its
// first seed, hoists the scalar constants of main into entry-function
// arguments, and then differentially tests every member on its own
// argument vector — member 0 on the original constants, later members
// on deterministically mutated ones. Batched execution (Batched=true)
// then shares everything that depends only on the module across the
// family: one verify and one pass-pipeline compilation per
// configuration, with every member run on the shared lowered modules
// through Interpreter.RunArgs. The unbatched strategy runs the
// identical members through the full per-member pipeline and is the
// yardstick: verdicts, journals and ReportText are byte-identical
// between the two strategies, which the determinism tests and the CI
// step pin.
package difftest

import (
	"context"
	"fmt"
	"math/rand"

	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/gen"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/verify"
)

// maxFamilyParams caps how many constants are hoisted into entry
// arguments: enough to open a useful mutation space, small enough that
// argument vectors stay cheap to build and journal-independent.
const maxFamilyParams = 8

// familyMaxSteps bounds every family execution (reference and
// compiled): mutated constants can steer a program into far longer
// runs than the generator planned, and a member that blows the budget
// is skipped, not wedged.
const familyMaxSteps = 2_000_000

// familyActive reports whether the campaign runs in family mode.
// Family mode requires fault-free, unbounded attempts — the shared
// stages of a batch cannot be attributed to one member's injector or
// deadline — so with Faults or a Timeout configured the classic
// per-seed campaign runs instead. Plan mode also disables it: a family
// varies the program under fixed configurations, plan mode varies the
// configuration under fixed programs, and the engines refuse to guess
// which axis wins.
func familyActive(cfg *CampaignConfig) bool {
	return cfg.FamilySize > 1 && cfg.Faults == nil && cfg.Timeout == 0 && len(cfg.Plans) == 0
}

// famParam is one hoisted constant: its integer width and original
// value. Index-typed constants are never hoisted — they are loop
// bounds and memref/tensor coordinates, and mutating them changes the
// program's shape rather than its data.
type famParam struct {
	width uint
	orig  int64
}

// parameterizeMain clones m and hoists up to maxFamilyParams
// integer-typed arith.constant ops from main's entry block into entry
// arguments. The returned module is the family's shared test subject;
// params describes the argument vector. With nothing to hoist the
// clone is returned unchanged and params is empty (the family
// degenerates to identical members, which is still deterministic).
func parameterizeMain(m *ir.Module) (*ir.Module, []famParam) {
	pm := m.Clone()
	f := pm.Func("main")
	if f == nil || len(f.Regions) == 0 {
		return pm, nil
	}
	entry := f.Regions[0].Entry()
	if entry == nil || len(entry.Args) != 0 {
		return pm, nil
	}
	var params []famParam
	kept := entry.Ops[:0]
	for _, op := range entry.Ops {
		if len(params) < maxFamilyParams && op.Name == "arith.constant" &&
			len(op.Results) == 1 && len(op.Regions) == 0 {
			if it, ok := op.Results[0].Type.(ir.IntegerType); ok {
				if va, ok := op.Attrs.Get("value").(ir.IntegerAttr); ok {
					entry.Args = append(entry.Args, op.Results[0])
					params = append(params, famParam{width: it.Width, orig: va.Value})
					continue
				}
			}
		}
		kept = append(kept, op)
	}
	entry.Ops = kept
	if len(params) == 0 {
		return pm, nil
	}
	ft, err := ir.FuncType(f)
	if err != nil {
		return m.Clone(), nil
	}
	ins := append([]ir.Type(nil), ft.Inputs...)
	for _, a := range entry.Args {
		ins = append(ins, a.Type)
	}
	f.Attrs.Set("function_type", ir.TypeAttrOf(ir.FuncOf(ins, ft.Results)))
	return pm, params
}

// familyArgs builds one member's argument vector. Member 0 replays the
// base program exactly (the original constants); later members draw
// mutated values from a generator seeded with the member's own seed,
// so a member's inputs depend only on (params, seed) — never on which
// engine or strategy runs it.
func familyArgs(params []famParam, seed int64, member int) []rtval.Value {
	if len(params) == 0 {
		return nil
	}
	args := make([]rtval.Value, len(params))
	if member == 0 {
		for i, p := range params {
			args[i] = rtval.Box(rtval.NewInt(p.width, p.orig))
		}
		return args
	}
	rng := rand.New(rand.NewSource(seed))
	for i, p := range params {
		args[i] = rtval.Box(rtval.NewInt(p.width, mutateParam(rng, p.width)))
	}
	return args
}

// mutateParam draws one mutated constant: half the draws stay near
// zero (the UB-edge and interning-relevant range — zero divisors,
// degenerate shifts), half are full-width bit patterns.
func mutateParam(rng *rand.Rand, width uint) int64 {
	if width == 1 {
		return int64(rng.Intn(2))
	}
	if rng.Intn(2) == 0 {
		return rng.Int63n(33) - 16
	}
	return int64(rng.Uint64())
}

// familyFailure replicates one shared-stage failure to every member:
// the family never produced a testable program, so each seed records
// the same contained failure.
func familyFailure(baseSeed int64, count int, sf *StageFailure) []seedOutcome {
	outs := make([]seedOutcome, count)
	for j := range outs {
		outs[j] = seedOutcome{verdict: Verdict{
			Seed: baseSeed + int64(j), Kind: VerdictStageFailure, Failure: sf,
			Attempts: 1, Quarantined: true,
		}}
	}
	return outs
}

// famMember is one member's in-flight state while the family runs.
type famMember struct {
	seed int64
	args []rtval.Value
	ref  string
	// done short-circuits the remaining stages once the member has a
	// verdict (skipped, contained failure, or aborted).
	done bool
}

// runFamily differentially tests one mutation family of count members
// whose first member's seed is baseSeed. It returns one seedOutcome
// per member, in member order. The verdict stream is a function of
// (config, seeds) only: the batched and unbatched strategies share
// every decision point and differ solely in whether module-level work
// products are computed once or once per member.
func runFamily(ctx context.Context, cfg *CampaignConfig, baseSeed int64, count int, prog *gen.Program) []seedOutcome {
	outs := make([]seedOutcome, count)

	// Parameterize once; a panic here is a harness bug and fails the
	// whole family, exactly like a generation panic.
	var pm *ir.Module
	var params []famParam
	if sf := guard(StageGenerate, baseSeed, prog.Module, func() {
		pm, params = parameterizeMain(prog.Module)
	}); sf != nil {
		return familyFailure(baseSeed, count, sf)
	}

	// Reference stage, per member: the Ratte semantics run on the
	// member's inputs establishes its expected output. A member whose
	// reference run fails (mutated constants reached UB, a trap, or the
	// step budget) is recorded as skipped: with no defined reference
	// behaviour there is nothing to differentially test.
	members := make([]famMember, count)
	for j := range members {
		mem := &members[j]
		mem.seed = baseSeed + int64(j)
		if ctx.Err() != nil {
			outs[j] = seedOutcome{aborted: true}
			mem.done = true
			continue
		}
		mem.args = familyArgs(params, mem.seed, j)
		var refOut string
		var refErr error
		t0 := cfg.Telemetry.stageStart()
		sf := guard(StageReference, mem.seed, pm, func() {
			in := dialects.NewReferenceInterpreter()
			in.MaxSteps = familyMaxSteps
			res, err := in.RunArgs(pm, "main", mem.args)
			if err != nil {
				refErr = err
				return
			}
			refOut = res.Output
		})
		cfg.Telemetry.stageDone(mem.seed, StageReference, t0, spanOutcome(sf, refErr))
		switch {
		case sf != nil:
			outs[j] = seedOutcome{verdict: Verdict{
				Seed: mem.seed, Kind: VerdictStageFailure, Failure: sf,
				Attempts: 1, Quarantined: true,
			}}
			mem.done = true
		case refErr != nil:
			outs[j] = seedOutcome{verdict: Verdict{Seed: mem.seed, Kind: VerdictSkipped, Attempts: 1}}
			mem.done = true
		default:
			mem.ref = refOut
		}
	}

	if cfg.Batched {
		runFamilyBatched(ctx, cfg, pm, members, outs)
	} else {
		runFamilyUnbatched(ctx, cfg, pm, members, outs)
	}
	return outs
}

// finishMember runs the compare stage over a finished report and records
// the member's final outcome.
func finishMember(cfg *CampaignConfig, pm *ir.Module, mem *famMember, rep *Report) seedOutcome {
	var oracle Oracle
	t0 := cfg.Telemetry.stageStart()
	if sf := guard(StageCompare, mem.seed, pm, func() {
		oracle = rep.Detected()
	}); sf != nil {
		cfg.Telemetry.stageDone(mem.seed, StageCompare, t0, spanOutcome(sf, nil))
		return seedOutcome{verdict: Verdict{
			Seed: mem.seed, Kind: VerdictStageFailure, Failure: sf,
			Attempts: 1, Quarantined: true,
		}}
	}
	cfg.Telemetry.stageDone(mem.seed, StageCompare, t0, "ok")
	if oracle == OracleNone {
		return seedOutcome{verdict: Verdict{Seed: mem.seed, Kind: VerdictOK, Attempts: 1}}
	}
	return seedOutcome{
		verdict: Verdict{Seed: mem.seed, Kind: VerdictDetection, Oracle: oracle, Attempts: 1},
		detection: &Detection{
			Seed:     mem.seed,
			Oracle:   oracle,
			Program:  pm,
			Expected: mem.ref,
			Report:   rep,
		},
	}
}

// memberFailure records one member's contained stage failure.
func memberFailure(mem *famMember, sf *StageFailure) seedOutcome {
	return seedOutcome{verdict: Verdict{
		Seed: mem.seed, Kind: VerdictStageFailure, Failure: sf,
		Attempts: 1, Quarantined: true,
	}}
}

// rejectionReport builds the report of a member whose module the
// frontend verifier rejected: every configuration records the same
// compile error, which is the wrong-rejection half of the NC oracle.
func rejectionReport(cfg *CampaignConfig, mem *famMember, verr error) *Report {
	rep := &Report{
		Preset:    cfg.Preset,
		Reference: mem.ref,
		Levels:    make(map[BuildConfig]LevelResult, len(BuildConfigs)),
	}
	for _, bc := range BuildConfigs {
		rep.Levels[bc] = LevelResult{CompileErr: verr}
	}
	return rep
}

// runFamilyBatched is the shared-work strategy: verify once, compile
// the pass pipeline once per configuration, and run every member on
// the lowered modules through RunArgs. Failure replication keeps
// member verdicts identical to the unbatched strategy: a deterministic
// panic in a shared stage would hit every member's private run of that
// stage too, so every live member records the same contained failure.
func runFamilyBatched(ctx context.Context, cfg *CampaignConfig, pm *ir.Module, members []famMember, outs []seedOutcome) {
	// Verify once.
	var verr error
	t0 := cfg.Telemetry.stageStart()
	sf := guard(StageVerify, members[0].seed, pm, func() {
		verr = verify.Module(pm, dialects.SourceSpecs())
	})
	cfg.Telemetry.stageDone(members[0].seed, StageVerify, t0, spanOutcome(sf, verr))
	if sf != nil {
		for j := range members {
			if !members[j].done {
				outs[j] = memberFailure(&members[j], sf)
			}
		}
		return
	}
	if verr != nil {
		for j := range members {
			mem := &members[j]
			if mem.done {
				continue
			}
			outs[j] = finishMember(cfg, pm, mem, rejectionReport(cfg, mem, verr))
		}
		return
	}

	// Compile the pass pipeline once per configuration.
	opts := &compiler.Options{Bugs: cfg.Bugs, SkipVerify: true}
	var cres []compiler.ConfigResult
	tc := cfg.Telemetry.stageStart()
	sf = guard(StageCompile, members[0].seed, pm, func() {
		cres = compiler.CompileConfigsOpts(pm, cfg.Preset, opts, BuildConfigs)
	})
	cfg.Telemetry.stageDone(members[0].seed, StageCompile, tc, spanOutcome(sf, nil))
	if sf != nil {
		for j := range members {
			if !members[j].done {
				outs[j] = memberFailure(&members[j], sf)
			}
		}
		return
	}

	// Interpret every member on the shared lowered modules.
	for j := range members {
		mem := &members[j]
		if mem.done {
			continue
		}
		if ctx.Err() != nil {
			outs[j] = seedOutcome{aborted: true}
			mem.done = true
			continue
		}
		rep := &Report{
			Preset:    cfg.Preset,
			Reference: mem.ref,
			Levels:    make(map[BuildConfig]LevelResult, len(BuildConfigs)),
		}
		ti := cfg.Telemetry.stageStart()
		if sf := guard(StageInterpret, mem.seed, pm, func() {
			for i, bc := range BuildConfigs {
				var lr LevelResult
				if cres[i].Err != nil {
					lr.CompileErr = cres[i].Err
				} else {
					ex := dialects.NewExecutor()
					ex.MaxSteps = familyMaxSteps
					ex.Metrics = cfg.Telemetry.interpMetrics()
					res, err := ex.RunArgs(cres[i].Module, "main", mem.args)
					if err != nil {
						lr.RunErr = err
					} else {
						lr.Output = res.Output
					}
				}
				rep.Levels[bc] = lr
			}
		}); sf != nil {
			cfg.Telemetry.stageDone(mem.seed, StageInterpret, ti, spanOutcome(sf, nil))
			outs[j] = memberFailure(mem, sf)
			continue
		}
		cfg.Telemetry.stageDone(mem.seed, StageInterpret, ti, "ok")
		outs[j] = finishMember(cfg, pm, mem, rep)
	}
}

// runFamilyUnbatched runs the identical members through the full
// per-member pipeline — the strategy batching is measured against.
func runFamilyUnbatched(ctx context.Context, cfg *CampaignConfig, pm *ir.Module, members []famMember, outs []seedOutcome) {
	for j := range members {
		mem := &members[j]
		if mem.done {
			continue
		}
		if ctx.Err() != nil {
			outs[j] = seedOutcome{aborted: true}
			continue
		}

		var verr error
		t0 := cfg.Telemetry.stageStart()
		sf := guard(StageVerify, mem.seed, pm, func() {
			verr = verify.Module(pm, dialects.SourceSpecs())
		})
		cfg.Telemetry.stageDone(mem.seed, StageVerify, t0, spanOutcome(sf, verr))
		if sf != nil {
			outs[j] = memberFailure(mem, sf)
			continue
		}
		if verr != nil {
			outs[j] = finishMember(cfg, pm, mem, rejectionReport(cfg, mem, verr))
			continue
		}

		opts := &compiler.Options{Bugs: cfg.Bugs, SkipVerify: true}
		var cres []compiler.ConfigResult
		tc := cfg.Telemetry.stageStart()
		sf = guard(StageCompile, mem.seed, pm, func() {
			cres = compiler.CompileConfigsOpts(pm, cfg.Preset, opts, BuildConfigs)
		})
		cfg.Telemetry.stageDone(mem.seed, StageCompile, tc, spanOutcome(sf, nil))
		if sf != nil {
			outs[j] = memberFailure(mem, sf)
			continue
		}

		rep := &Report{
			Preset:    cfg.Preset,
			Reference: mem.ref,
			Levels:    make(map[BuildConfig]LevelResult, len(BuildConfigs)),
		}
		ti := cfg.Telemetry.stageStart()
		if sf := guard(StageInterpret, mem.seed, pm, func() {
			for i, bc := range BuildConfigs {
				var lr LevelResult
				if cres[i].Err != nil {
					lr.CompileErr = cres[i].Err
				} else {
					ex := dialects.NewExecutor()
					ex.MaxSteps = familyMaxSteps
					ex.Metrics = cfg.Telemetry.interpMetrics()
					res, err := ex.RunArgs(cres[i].Module, "main", mem.args)
					if err != nil {
						lr.RunErr = err
					} else {
						lr.Output = res.Output
					}
				}
				rep.Levels[bc] = lr
			}
		}); sf != nil {
			cfg.Telemetry.stageDone(mem.seed, StageInterpret, ti, spanOutcome(sf, nil))
			outs[j] = memberFailure(mem, sf)
			continue
		}
		cfg.Telemetry.stageDone(mem.seed, StageInterpret, ti, "ok")
		outs[j] = finishMember(cfg, pm, mem, rep)
	}
}

// runCampaignFamilies is the serial engine's family-mode loop: one
// generation per family, one runFamily per family, and exactly the
// classic loop's per-seed accounting over the member outcomes.
func runCampaignFamilies(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	res := newCampaignResult()
	for base := 0; base < cfg.Programs; base += cfg.FamilySize {
		count := cfg.FamilySize
		if base+count > cfg.Programs {
			count = cfg.Programs - base
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		allResumed := true
		for j := 0; j < count; j++ {
			if _, ok := cfg.Resumed[cfg.Seed+int64(base+j)]; !ok {
				allResumed = false
				break
			}
		}
		var outs []seedOutcome
		if !allResumed {
			baseSeed := cfg.Seed + int64(base)
			prog, sf, err := generateStage(&cfg, baseSeed, nil) // family mode runs uncovered
			if err != nil {
				return nil, fmt.Errorf("difftest: generation failed: %w", err)
			}
			if sf != nil {
				outs = familyFailure(baseSeed, count, sf)
			} else {
				outs = runFamily(ctx, &cfg, baseSeed, count, prog)
			}
		}
		for j := 0; j < count; j++ {
			seed := cfg.Seed + int64(base+j)
			if v, ok := cfg.Resumed[seed]; ok {
				isDetection := res.record(v, nil)
				cfg.Telemetry.onVerdict(v)
				if isDetection && cfg.StopAtFirst {
					return res, nil
				}
				continue
			}
			out := outs[j]
			if out.aborted {
				return res, ctx.Err()
			}
			isDetection := res.record(out.verdict, out.detection)
			cfg.Telemetry.onVerdict(out.verdict)
			if cfg.Journal != nil {
				t0 := cfg.Telemetry.stageStart()
				err := cfg.Journal.Append(out.verdict)
				cfg.Telemetry.journalDone(t0)
				if err != nil {
					return res, fmt.Errorf("difftest: journal: %w", err)
				}
			}
			if isDetection && cfg.StopAtFirst {
				return res, nil
			}
		}
	}
	return res, nil
}
