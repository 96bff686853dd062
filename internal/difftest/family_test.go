package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/dialects"
	"ratte/internal/gen"
	"ratte/internal/verify"
)

// TestParameterizedMainIsValidAndFaithful pins the parameterization
// contract across presets: the hoisted module still passes the
// frontend verifier, and member 0 (original constants as arguments)
// reproduces the generator's expected output exactly.
func TestParameterizedMainIsValidAndFaithful(t *testing.T) {
	for _, preset := range gen.Presets() {
		for seed := int64(0); seed < 8; seed++ {
			prog, err := gen.Generate(gen.Config{Preset: preset, Size: 14, Seed: seed})
			if err != nil {
				t.Fatalf("%s/%d: generate: %v", preset, seed, err)
			}
			pm, params := parameterizeMain(prog.Module)
			if err := verify.Module(pm, dialects.SourceSpecs()); err != nil {
				t.Fatalf("%s/%d: parameterized module fails verify: %v", preset, seed, err)
			}
			args := familyArgs(params, seed, 0)
			in := dialects.NewReferenceInterpreter()
			in.MaxSteps = familyMaxSteps
			res, err := in.RunArgs(pm, "main", args)
			if err != nil {
				t.Fatalf("%s/%d: member-0 reference run: %v", preset, seed, err)
			}
			if res.Output != prog.Expected {
				t.Fatalf("%s/%d: member 0 diverged from generator expectation:\n got %q\nwant %q",
					preset, seed, res.Output, prog.Expected)
			}
		}
	}
}

// TestFamilyCleanCompilerHasNoDetections: mutated inputs must never
// manufacture detections on a correct compiler — a member either
// agrees everywhere or is skipped for lack of defined reference
// behaviour.
func TestFamilyCleanCompilerHasNoDetections(t *testing.T) {
	for _, preset := range gen.Presets() {
		for _, batched := range []bool{false, true} {
			cfg := CampaignConfig{
				Preset: preset, Programs: 12, Size: 14, Seed: 300,
				FamilySize: 4, Batched: batched,
			}
			res, err := RunCampaign(cfg)
			if err != nil {
				t.Fatalf("%s/batched=%v: %v", preset, batched, err)
			}
			if len(res.Detections) != 0 {
				t.Fatalf("%s/batched=%v: clean compiler produced %d detections: %+v",
					preset, batched, len(res.Detections), res.Detections[0])
			}
			if res.Programs != cfg.Programs {
				t.Fatalf("%s/batched=%v: programs = %d, want %d", preset, batched, res.Programs, cfg.Programs)
			}
		}
	}
}

// TestBatchedMatchesUnbatched is the tentpole determinism contract:
// batched and unbatched family campaigns produce byte-identical
// ReportText, serial and parallel, with and without an injected bug.
func TestBatchedMatchesUnbatched(t *testing.T) {
	cases := []CampaignConfig{
		{Preset: "ariths", Programs: 16, Size: 16, Seed: 97, FamilySize: 4, Bugs: bugs.Only(bugs.RemoveDeadValuesCall)},
		{Preset: "linalggeneric", Programs: 12, Size: 14, Seed: 41, FamilySize: 3},
		{Preset: "tensor", Programs: 10, Size: 14, Seed: 55, FamilySize: 4},
	}
	for _, base := range cases {
		t.Run(fmt.Sprintf("%s_fam%d", base.Preset, base.FamilySize), func(t *testing.T) {
			unb := base
			unb.Batched = false
			want, err := RunCampaign(unb)
			if err != nil {
				t.Fatal(err)
			}
			bat := base
			bat.Batched = true
			got, err := RunCampaign(bat)
			if err != nil {
				t.Fatal(err)
			}
			if ReportText(got) != ReportText(want) {
				t.Fatalf("batched != unbatched (serial):\n got:\n%s\nwant:\n%s", ReportText(got), ReportText(want))
			}
			assertSameVerdicts(t, want, got)
			for _, workers := range []int{2, 4} {
				for _, batched := range []bool{false, true} {
					cfg := base
					cfg.Batched = batched
					pres, err := RunCampaignParallel(cfg, workers)
					if err != nil {
						t.Fatalf("workers=%d batched=%v: %v", workers, batched, err)
					}
					if ReportText(pres) != ReportText(want) {
						t.Fatalf("workers=%d batched=%v: parallel family run diverged:\n got:\n%s\nwant:\n%s",
							workers, batched, ReportText(pres), ReportText(want))
					}
					assertSameVerdicts(t, want, pres)
				}
			}
		})
	}
}

// assertSameVerdicts compares the per-seed verdict streams (ignoring
// panic stacks, which legitimately differ across engines).
func assertSameVerdicts(t *testing.T, want, got *CampaignResult) {
	t.Helper()
	if len(want.Verdicts) != len(got.Verdicts) {
		t.Fatalf("verdict count: got %d, want %d", len(got.Verdicts), len(want.Verdicts))
	}
	for i := range want.Verdicts {
		w, g := want.Verdicts[i], got.Verdicts[i]
		if w.Seed != g.Seed || w.Kind != g.Kind || w.Oracle != g.Oracle ||
			w.Attempts != g.Attempts || w.Quarantined != g.Quarantined {
			t.Fatalf("verdict %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestFamilyExercisesSkips pins that constant mutation actually
// reaches UB on the arithmetic preset (divisors drawn to zero, shifts
// out of range) and that those members are skipped, not misreported.
func TestFamilyExercisesSkips(t *testing.T) {
	cfg := CampaignConfig{
		Preset: "ariths", Programs: 40, Size: 18, Seed: 1000,
		FamilySize: 5, Batched: true,
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatalf("expected some skipped members across %d mutated programs; report:\n%s",
			cfg.Programs, ReportText(res))
	}
	if len(res.Detections) != 0 {
		t.Fatalf("clean compiler produced detections:\n%s", ReportText(res))
	}
}

// TestFamilyJournalResume: a batched family campaign journaled and
// interrupted must resume — even under the opposite strategy — to the
// exact same final report.
func TestFamilyJournalResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fam.jsonl")
	cfg := CampaignConfig{
		Preset: "ariths", Programs: 12, Size: 14, Seed: 77,
		FamilySize: 4, Batched: true,
	}
	full, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First leg: journal a 7-program prefix (a partial family).
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	legCfg := cfg
	legCfg.Programs = 7
	legCfg.Journal = j
	if _, err := RunCampaign(legCfg); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second leg: resume to the full count under the other strategy.
	j2, resumed, err := OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resCfg := cfg
	resCfg.Batched = false
	resCfg.Journal = j2
	resCfg.Resumed = resumed
	res, err := RunCampaign(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if ReportText(res) != ReportText(full) {
		t.Fatalf("resumed family campaign diverged:\n got:\n%s\nwant:\n%s", ReportText(res), ReportText(full))
	}

	// A journal recorded under one family size must refuse another.
	other := cfg
	other.FamilySize = 3
	if _, _, err := OpenJournalForResume(path, other); err == nil {
		t.Fatal("journal resume accepted a different family size")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyIgnoredUnderFaultsAndTimeouts: family mode silently yields
// to the classic per-seed campaign when fault injection or per-program
// budgets are configured, and the journal header reflects that.
func TestFamilyIgnoredUnderFaultsAndTimeouts(t *testing.T) {
	classic := CampaignConfig{Preset: "ariths", Programs: 6, Size: 12, Seed: 9}
	want, err := RunCampaign(classic)
	if err != nil {
		t.Fatal(err)
	}
	famCfg := classic
	famCfg.FamilySize = 3
	famCfg.Batched = true
	famCfg.Timeout = 1 << 40 // effectively unbounded, but set
	got, err := RunCampaign(famCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ReportText(got) != ReportText(want) {
		t.Fatalf("family config with Timeout did not fall back to classic:\n got:\n%s\nwant:\n%s",
			ReportText(got), ReportText(want))
	}
	if h := headerFor(&famCfg); h.Family != 0 {
		t.Fatalf("journal header records family %d for an inactive family config", h.Family)
	}
}
