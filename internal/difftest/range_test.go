package difftest_test

import (
	"context"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/difftest"
)

func rangeCfg(programs int) difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: programs,
		Size:     16,
		Seed:     97,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
}

// merge sequences verdicts the way the fleet coordinator splices shard
// uploads.
func merge(t *testing.T, cfg difftest.CampaignConfig, verdicts []difftest.Verdict) *difftest.CampaignResult {
	t.Helper()
	seq := difftest.NewSequencer(cfg)
	for _, v := range verdicts {
		if err := seq.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return seq.Result()
}

// TestRunCampaignRangeMatchesSerial: the concatenation of shard-ranged
// runs is verdict-identical to one serial run — the invariant the
// fleet's merge determinism stands on — and a Sequencer fed the
// spliced stream reproduces the serial report byte for byte.
func TestRunCampaignRangeMatchesSerial(t *testing.T) {
	cfg := rangeCfg(24)
	want, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		var spliced []difftest.Verdict
		for _, shard := range []struct{ first, count int }{{0, 7}, {7, 7}, {14, 10}} {
			vs, err := difftest.RunCampaignRange(context.Background(), cfg, shard.first, shard.count, workers)
			if err != nil {
				t.Fatalf("workers=%d shard [%d,%d): %v", workers, shard.first, shard.first+shard.count, err)
			}
			spliced = append(spliced, vs...)
		}
		if d := difftest.DiffVerdicts(want.Verdicts, spliced); d != "" {
			t.Fatalf("workers=%d: spliced ranges differ from serial: %s", workers, d)
		}
		res := merge(t, cfg, spliced)
		if a, b := difftest.ReportText(want), difftest.ReportText(res); a != b {
			t.Fatalf("workers=%d: assembled report differs from serial:\n--- serial\n%s--- assembled\n%s", workers, a, b)
		}
	}
}

// TestRunCampaignRangePlansAndFamilies: shard-ranged runs agree with
// the serial engine in plan-fuzzing mode and in batched family mode
// too — the modes the fleet must not perturb.
func TestRunCampaignRangePlansAndFamilies(t *testing.T) {
	plans, err := compiler.SamplePlans("ariths", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  difftest.CampaignConfig
	}{
		{"plans", func() difftest.CampaignConfig {
			c := rangeCfg(12)
			c.Plans = plans
			return c
		}()},
		{"batched-family", difftest.CampaignConfig{
			Preset: "ariths", Programs: 16, Size: 16, Seed: 97,
			FamilySize: 4, Batched: true,
			Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := difftest.RunCampaign(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			half := tc.cfg.Programs / 2
			var spliced []difftest.Verdict
			for _, shard := range []struct{ first, count int }{{0, half}, {half, tc.cfg.Programs - half}} {
				vs, err := difftest.RunCampaignRange(context.Background(), tc.cfg, shard.first, shard.count, 2)
				if err != nil {
					t.Fatal(err)
				}
				spliced = append(spliced, vs...)
			}
			if d := difftest.DiffVerdicts(want.Verdicts, spliced); d != "" {
				t.Fatalf("spliced ranges differ from serial: %s", d)
			}
			if a, b := difftest.ReportText(want), difftest.ReportText(merge(t, tc.cfg, spliced)); a != b {
				t.Fatalf("assembled report differs from serial:\n--- serial\n%s--- assembled\n%s", a, b)
			}
		})
	}
}

// TestValidateShardRange: bounds and family-alignment violations are
// rejected before any work runs.
func TestValidateShardRange(t *testing.T) {
	plain := rangeCfg(20)
	family := difftest.CampaignConfig{Preset: "ariths", Programs: 20, Size: 12, Seed: 1, FamilySize: 4}
	cases := []struct {
		name         string
		cfg          *difftest.CampaignConfig
		first, count int
		ok           bool
	}{
		{"whole", &plain, 0, 20, true},
		{"inner", &plain, 5, 10, true},
		{"negative-first", &plain, -1, 5, false},
		{"zero-count", &plain, 0, 0, false},
		{"past-end", &plain, 15, 6, false},
		{"family-aligned", &family, 4, 8, true},
		{"family-tail", &family, 16, 4, true},
		{"family-misaligned-start", &family, 2, 4, false},
		{"family-misaligned-count", &family, 0, 6, false},
	}
	for _, tc := range cases {
		err := difftest.ValidateShardRange(tc.cfg, tc.first, tc.count)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid shard [%d,%d) accepted", tc.name, tc.first, tc.first+tc.count)
		}
	}
}

// TestCampaignFingerprintSensitivity: the fingerprint moves with every
// verdict-relevant knob and ignores the program count — the contract
// worker registration validates against.
func TestCampaignFingerprintSensitivity(t *testing.T) {
	base := rangeCfg(20)
	fp := func(c difftest.CampaignConfig) string {
		t.Helper()
		b, err := difftest.CampaignFingerprint(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := fp(base)

	same := base
	same.Programs = 4000
	if fp(same) != want {
		t.Fatal("program count must be outside the fingerprint")
	}

	mutations := map[string]func(*difftest.CampaignConfig){
		"preset": func(c *difftest.CampaignConfig) { c.Preset = "tensor" },
		"seed":   func(c *difftest.CampaignConfig) { c.Seed++ },
		"size":   func(c *difftest.CampaignConfig) { c.Size++ },
		"bugs":   func(c *difftest.CampaignConfig) { c.Bugs = bugs.None() },
		"family": func(c *difftest.CampaignConfig) { c.FamilySize = 4 },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if fp(c) == want {
			t.Errorf("%s: fingerprint unchanged by a verdict-relevant knob", name)
		}
	}
}
