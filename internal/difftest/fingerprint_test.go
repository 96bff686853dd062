package difftest_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

var updateFingerprint = flag.Bool("update-fingerprint", false,
	"rewrite testdata/report-fingerprint.golden from the current campaign engine")

const reportFingerprintPath = "testdata/report-fingerprint.golden"

// miscompiles injects every bug that changes program behaviour rather
// than rejecting the program, so the digested detections depend on the
// outputs the interpreter computes for source and lowered code.
var miscompiles = bugs.Only(bugs.IndexCastUIFold, bugs.IndexCastChainFold, bugs.MulsiExtendedI1Fold,
	bugs.CeilDivSiConvert, bugs.FloorDivSiExpand, bugs.CeilDivSiExpand)

// reportFingerprintCampaigns are the pinned campaigns: every preset
// shape the interpreter serves (scalar, linalg, tensor), the classic
// per-seed loop and both family strategies.
var reportFingerprintCampaigns = []struct {
	name string
	cfg  difftest.CampaignConfig
}{
	{"linalggeneric", difftest.CampaignConfig{Preset: "linalggeneric", Programs: 100, Size: 20, Seed: 1, Bugs: miscompiles}},
	{"tensor-family4-batched", difftest.CampaignConfig{Preset: "tensor", Programs: 100, Size: 20, Seed: 1, Bugs: miscompiles, FamilySize: 4, Batched: true}},
	{"tensor-family4-unbatched", difftest.CampaignConfig{Preset: "tensor", Programs: 100, Size: 20, Seed: 1, Bugs: miscompiles, FamilySize: 4}},
	{"ariths", difftest.CampaignConfig{Preset: "ariths", Programs: 100, Size: 20, Seed: 1, Bugs: miscompiles}},
}

// reportFingerprint hashes a campaign's ReportText, its verdict list
// (panic stacks cleared, as verdict comparison ignores them) and every
// detection's expected output.
func reportFingerprint(t *testing.T, cfg difftest.CampaignConfig) string {
	t.Helper()
	res, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s-- verdicts --\n", difftest.ReportText(res))
	for _, v := range res.Verdicts {
		if v.Failure != nil {
			f := *v.Failure
			f.Stack = ""
			v.Failure = &f
		}
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n", line)
	}
	for _, d := range res.Detections {
		fmt.Fprintf(h, "-- detection seed %d %s --\n%s", d.Seed, d.Oracle, d.Expected)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCampaignReportFingerprint pins what campaigns report, byte for
// byte: one digest per campaign. Refactors of the interpreter, the
// compiler or the campaign engine must leave every digest unchanged.
// Run with -update-fingerprint only after an intentional change to
// what campaigns report.
func TestCampaignReportFingerprint(t *testing.T) {
	var b strings.Builder
	for _, c := range reportFingerprintCampaigns {
		fmt.Fprintf(&b, "%s %s\n", c.name, reportFingerprint(t, c.cfg))
	}
	got := b.String()

	if *updateFingerprint {
		if err := os.WriteFile(reportFingerprintPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", reportFingerprintPath)
		return
	}
	want, err := os.ReadFile(reportFingerprintPath)
	if err != nil {
		t.Fatalf("missing %s (run `go test ./internal/difftest -run ReportFingerprint -update-fingerprint`): %v", reportFingerprintPath, err)
	}
	if got != string(want) {
		t.Errorf("campaign reports drifted from %s:\n--- want ---\n%s--- got ---\n%s", reportFingerprintPath, want, got)
	}
}
