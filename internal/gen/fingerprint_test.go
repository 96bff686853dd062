package gen_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ratte/internal/gen"
	"ratte/internal/ir"
)

var updateFingerprint = flag.Bool("update-fingerprint", false,
	"rewrite testdata/fingerprint.golden from the current generator")

const (
	fingerprintPath  = "testdata/fingerprint.golden"
	fingerprintSeeds = 300
)

var fingerprintSizes = []int{10, 30}

// fingerprint hashes the printed module and the expected output of
// every seed in [0, fingerprintSeeds) for one preset and size.
func fingerprint(t *testing.T, preset string, size int) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(0); seed < fingerprintSeeds; seed++ {
		p, err := gen.Generate(gen.Config{Preset: preset, Size: size, Seed: seed})
		if err != nil {
			t.Fatalf("%s n=%d seed %d: %v", preset, size, seed, err)
		}
		fmt.Fprintf(h, "seed %d\n%s\n-- expected --\n%s\n", seed, ir.Print(p.Module), p.Expected)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerationFingerprint pins the generator's output byte for byte:
// one digest per preset and size over 300 seeds. Refactors of the
// generator or the semantic store must leave every digest unchanged.
// Run with -update-fingerprint only after an intentional change to
// what the generator produces.
func TestGenerationFingerprint(t *testing.T) {
	var b strings.Builder
	for _, preset := range gen.AllPresets() {
		for _, size := range fingerprintSizes {
			fmt.Fprintf(&b, "%s %d %s\n", preset, size, fingerprint(t, preset, size))
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
		t.Fatalf("missing %s (run `go test ./internal/gen -run Fingerprint -update-fingerprint`): %v", fingerprintPath, err)
	}
	if got != string(want) {
		t.Errorf("generated programs drifted from %s:\n--- want ---\n%s--- got ---\n%s", fingerprintPath, want, got)
	}
}
