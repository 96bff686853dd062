package difftest_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

// resumeLeg reopens a copy of the journal at src for resume and runs
// cfg over it at the given worker count, returning the result, the
// journal's final bytes and the run's error.
func resumeLeg(t *testing.T, src string, cfg difftest.CampaignConfig, workers int) (*difftest.CampaignResult, []byte, error) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	cfg.Resumed = resumed
	res, runErr := difftest.RunCampaignParallel(cfg, workers)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, out, runErr
}

// TestStopAtFirstOnResumedDetection: when the first detection is a
// verdict replayed from the journal, StopAtFirst stops there exactly
// as the fresh run does, and nothing is appended to the journal.
func TestStopAtFirstOnResumedDetection(t *testing.T) {
	cfg := journalCfg(60)
	cfg.Bugs = bugs.Only(bugs.FloorDivSiExpand) // first detected around seed index 22
	cfg.StopAtFirst = true
	fresh, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Detections) != 1 || fresh.Programs < 2 || fresh.Programs == cfg.Programs {
		t.Fatalf("campaign does not stop at a detection:\n%s", difftest.ReportText(fresh))
	}

	// Journal exactly the prefix that ends in the first detection.
	path := filepath.Join(t.TempDir(), "prefix.jsonl")
	prefix := cfg
	prefix.Programs = fresh.Programs
	prefix.StopAtFirst = false
	runJournaled(t, path, prefix)
	journaled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		res, after, err := resumeLeg(t, path, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Programs != fresh.Programs {
			t.Errorf("workers=%d: resumed run tested %d programs, fresh run %d", workers, res.Programs, fresh.Programs)
		}
		if a, b := difftest.ReportText(res), difftest.ReportText(fresh); a != b {
			t.Errorf("workers=%d: resumed report differs:\n--- resumed\n%s--- fresh\n%s", workers, a, b)
		}
		if !bytes.Equal(after, journaled) {
			t.Errorf("workers=%d: journal grew from %d to %d bytes", workers, len(journaled), len(after))
		}
	}
}

// TestJournalWriteFailure: a journal that cannot be written stops the
// campaign at the first fresh verdict with a "difftest: journal:"
// error and the partial result, identically at any worker count.
func TestJournalWriteFailure(t *testing.T) {
	cfg := journalCfg(12)
	prior, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := make(map[int64]difftest.Verdict)
	for _, v := range prior.Verdicts[:3] {
		resumed[v.Seed] = v
	}

	var verdicts [][]difftest.Verdict
	for _, workers := range []int{1, 4} {
		j, err := difftest.CreateJournal(filepath.Join(t.TempDir(), "closed.jsonl"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		run := cfg
		run.Journal = j
		run.Resumed = resumed
		res, err := difftest.RunCampaignParallel(run, workers)
		if err == nil || !strings.HasPrefix(err.Error(), "difftest: journal:") {
			t.Fatalf("workers=%d: err = %v, want a difftest: journal: error", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: journal failure returned no partial result", workers)
		}
		if len(res.Verdicts) != 4 {
			t.Errorf("workers=%d: %d verdicts, want the 3 resumed plus the one that failed to journal", workers, len(res.Verdicts))
		}
		verdicts = append(verdicts, res.Verdicts)
	}
	if d := difftest.DiffVerdicts(verdicts[0], verdicts[1]); d != "" {
		t.Fatalf("partial verdicts differ between 1 and 4 workers: %s", d)
	}
	if d := difftest.DiffVerdicts(prior.Verdicts[:4], verdicts[0]); d != "" {
		t.Fatalf("partial verdicts differ from the uninterrupted run: %s", d)
	}
}

// TestFamilyResumeMidFamily: a family campaign whose journal was cut
// inside a family resumes to the fresh run's report and journal.
func TestFamilyResumeMidFamily(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 20, Size: 16, Seed: 97,
		FamilySize: 4, Batched: true,
		Bugs: bugs.Only(bugs.RemoveDeadValuesCall),
	}
	path := filepath.Join(t.TempDir(), "fam.jsonl")
	fresh := runJournaled(t, path, cfg)
	if len(fresh.Detections) == 0 {
		t.Fatalf("campaign has no detections to resume over:\n%s", difftest.ReportText(fresh))
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Keep the header and six verdicts: the cut falls inside the second
	// family.
	lines := bytes.SplitAfter(full, []byte("\n"))
	cut := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(cut, bytes.Join(lines[:7], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		res, after, err := resumeLeg(t, cut, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if a, b := difftest.ReportText(res), difftest.ReportText(fresh); a != b {
			t.Errorf("workers=%d: resumed report differs:\n--- resumed\n%s--- fresh\n%s", workers, a, b)
		}
		if d := difftest.DiffVerdicts(fresh.Verdicts, res.Verdicts); d != "" {
			t.Errorf("workers=%d: resumed verdicts differ: %s", workers, d)
		}
		if !bytes.Equal(after, full) {
			t.Errorf("workers=%d: resumed journal differs from the fresh run's", workers)
		}
	}
}

// TestSequencerStopsAfterJournalFailure: once an append fails, Add
// keeps returning that error and records nothing more; resumed seeds
// never touch the journal.
func TestSequencerStopsAfterJournalFailure(t *testing.T) {
	cfg := journalCfg(4)
	run, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := run.Verdicts
	j, err := difftest.CreateJournal(filepath.Join(t.TempDir(), "closed.jsonl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	cfg.Resumed = map[int64]difftest.Verdict{vs[0].Seed: vs[0]}
	seq := difftest.NewSequencer(cfg)

	if err := seq.Add(vs[0]); err != nil {
		t.Fatalf("resumed verdict touched the journal: %v", err)
	}
	first := seq.Add(vs[1])
	if first == nil {
		t.Fatal("append to a closed journal succeeded")
	}
	if seq.Len() != 2 {
		t.Fatalf("Len = %d after the failed append, want 2 (the failed verdict stays recorded)", seq.Len())
	}
	for _, v := range vs[2:] {
		if err := seq.Add(v); err != first {
			t.Fatalf("Add after failure = %v, want %v", err, first)
		}
	}
	if seq.Len() != 2 || len(seq.Result().Verdicts) != 2 {
		t.Fatalf("Len = %d, %d verdicts after the failure; want 2", seq.Len(), len(seq.Result().Verdicts))
	}
}
