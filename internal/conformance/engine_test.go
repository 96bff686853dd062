package conformance_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"ratte/internal/compiler"
	"ratte/internal/conformance"
	"ratte/internal/dialects"
	"ratte/internal/difftest"
	"ratte/internal/gen"
	"ratte/internal/interp"
	"ratte/internal/ir"
)

// engineMaxSteps bounds both paths identically, so a program that trips
// the step limit trips it at the same step under each.
const engineMaxSteps = 2_000_000

// engineOutcome is everything the agreement compares: Result bytes on
// success, error text and classification on failure.
type engineOutcome struct {
	ok       bool
	output   string
	returned string
	errText  string
	ub, trap bool
}

func outcomeOf(res *interp.Result, err error) engineOutcome {
	if err != nil {
		return engineOutcome{errText: err.Error(), ub: interp.IsUB(err), trap: interp.IsTrap(err)}
	}
	return engineOutcome{ok: true, output: res.Output, returned: fmt.Sprintf("%v", res.Returned)}
}

// checkEngineAgreement runs m through RunArgs, the campaign's path, and
// through the deprecated Compile + RunProgramArgs pair that the campaign
// benchmark still drives, both over the full executor registry, and
// reports the first difference. The benchmark's correctness check is
// only as good as this agreement; the test goes when the deprecated
// identifiers do.
func checkEngineAgreement(t *testing.T, m *ir.Module, stage string) {
	t.Helper()
	walk := dialects.NewExecutor()
	walk.MaxSteps = engineMaxSteps
	want := outcomeOf(walk.RunArgs(m, "main", nil))

	bench := dialects.NewExecutor()
	bench.MaxSteps = engineMaxSteps
	got := outcomeOf(bench.RunProgramArgs(interp.Compile(dialects.ExecutorRegistry(), m), "main", nil))

	if got != want {
		t.Errorf("%s: RunArgs %+v vs RunProgramArgs %+v", stage, want, got)
	}
}

// TestEngineAgreementCorpus replays the committed regression corpus
// through the agreement check: every persisted counterexample, whatever
// oracle originally produced it, must execute byte-identically on both
// paths. The corpus skews toward modules that once broke something.
func TestEngineAgreementCorpus(t *testing.T) {
	rs, err := conformance.ReadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("empty regression corpus")
	}
	for _, r := range rs {
		r := r
		t.Run(filepath.Base(r.File), func(t *testing.T) {
			checkEngineAgreement(t, r.Module, "corpus")
		})
	}
}

// TestEngineAgreementTrials checks the agreement on fresh programs: a
// few seeds per preset, each at source level and after every build
// configuration's lowering.
func TestEngineAgreementTrials(t *testing.T) {
	for _, preset := range gen.AllPresets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				p, err := gen.Generate(gen.Config{Preset: preset, Size: 25, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				checkEngineAgreement(t, p.Module, fmt.Sprintf("seed %d source", seed))
				outs := compiler.CompileConfigs(p.Module, preset, nil, difftest.BuildConfigs)
				for i, bc := range difftest.BuildConfigs {
					if outs[i].Err != nil {
						continue // difftest owns rejections
					}
					checkEngineAgreement(t, outs[i].Module, fmt.Sprintf("seed %d %s", seed, bc))
				}
			}
		})
	}
}
