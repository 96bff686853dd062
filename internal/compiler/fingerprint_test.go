package compiler_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/gen"
	"ratte/internal/ir"
)

var updateFingerprint = flag.Bool("update-fingerprint", false,
	"rewrite testdata/fingerprint.golden from the current compiler")

const (
	fingerprintPath  = "testdata/fingerprint.golden"
	fingerprintSeeds = 100
	fingerprintSize  = 30
	// Every planStride-th seed is also compiled under fingerprintPlans
	// sampled plans.
	planStride       = 5
	fingerprintPlans = 16
)

// fingerprintConfigs are the four build configurations a campaign
// compiles every program under.
var fingerprintConfigs = []compiler.Config{
	{Level: compiler.O0},
	{Level: compiler.O1},
	{Level: compiler.O2},
	{Level: compiler.O1, SkipArithExpand: true},
}

// hashResults writes each lowered module's printed form, or its
// rejection text, to h.
func hashResults(h hash.Hash, label string, results []compiler.ConfigResult) {
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(h, "%s %d error: %v\n", label, i, r.Err)
			continue
		}
		fmt.Fprintf(h, "%s %d\n%s\n", label, i, ir.Print(r.Module))
	}
}

// compileFingerprint hashes the lowered IR of fingerprintSeeds generated
// programs of one preset under one bug set: every build configuration,
// plus the sampled plans on every planStride-th seed.
func compileFingerprint(t *testing.T, preset string, bugSet bugs.Set) string {
	t.Helper()
	plans, err := compiler.SamplePlans(preset, fingerprintPlans, 1)
	if err != nil {
		t.Fatalf("%s: sample plans: %v", preset, err)
	}
	h := sha256.New()
	for seed := int64(0); seed < fingerprintSeeds; seed++ {
		p, err := gen.Generate(gen.Config{Preset: preset, Size: fingerprintSize, Seed: seed})
		if err != nil {
			t.Fatalf("%s seed %d: %v", preset, seed, err)
		}
		fmt.Fprintf(h, "seed %d\n", seed)
		hashResults(h, "config", compiler.CompileConfigsOpts(p.Module, preset, &compiler.Options{Bugs: bugSet}, fingerprintConfigs))
		if seed%planStride == 0 {
			hashResults(h, "plan", compiler.CompilePlansOpts(p.Module, &compiler.Options{Bugs: bugSet}, plans))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileFingerprint pins the lowered IR byte for byte, including
// every fresh SSA name and block label the passes introduce: one digest
// per preset and bug set. Optimisations of the compiler passes must
// leave every digest unchanged. Run with -update-fingerprint only after
// an intentional change to what the compiler produces.
func TestCompileFingerprint(t *testing.T) {
	bugSets := []struct {
		name string
		set  bugs.Set
	}{{"none", bugs.None()}, {"all", bugs.All()}}
	var b strings.Builder
	for _, preset := range gen.Presets() {
		for _, bs := range bugSets {
			fmt.Fprintf(&b, "%s %s %s\n", preset, bs.name, compileFingerprint(t, preset, bs.set))
		}
	}
	got := b.String()

	if *updateFingerprint {
		if err := os.WriteFile(fingerprintPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", fingerprintPath)
		return
	}
	want, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("missing %s (run `go test ./internal/compiler -run Fingerprint -update-fingerprint`): %v", fingerprintPath, err)
	}
	if got != string(want) {
		t.Errorf("lowered IR drifted from %s:\n--- want ---\n%s--- got ---\n%s", fingerprintPath, want, got)
	}
}
