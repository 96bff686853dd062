package compiler_test

import (
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/gen"
)

// TestCompileConfigsAllocs bounds the allocations of compiling one
// fixed program per preset under the four build configurations. The
// bounds sit 4% above the counts measured with Go 1.24 (ariths 2768,
// linalggeneric 6336): cloning every op convert-arith-to-llvm renames
// adds 7% and 6%, a per-pass map of every SSA name 6% and 11%, so
// either fails here. A toolchain whose maps allocate differently may
// need the bounds measured again.
func TestCompileConfigsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cases := []struct {
		preset string
		max    float64
	}{
		{"ariths", 2880},
		{"linalggeneric", 6590},
	}
	for _, c := range cases {
		p, err := gen.Generate(gen.Config{Preset: c.preset, Size: 30, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := &compiler.Options{Bugs: bugs.None(), SkipVerify: true}
		n := testing.AllocsPerRun(10, func() {
			compiler.CompileConfigsOpts(p.Module, c.preset, opts, fingerprintConfigs)
		})
		if n > c.max {
			t.Errorf("%s: CompileConfigsOpts allocated %.0f times, want at most %.0f", c.preset, n, c.max)
		}
	}
}
