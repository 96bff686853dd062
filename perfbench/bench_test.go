package main

import (
	"runtime"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

// small returns a workload's bench with chunks of n seeds.
func small(t *testing.T, name string, n int) *bench {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.chunk = n
	b, err := newBench(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A bug-injected compiler under the ariths workload, which expects the
// correct compiler, must fail the zero-detection check.
func TestZeroDetectionCheckFails(t *testing.T) {
	b := small(t, "ariths", 40)
	b.bugSet = bugs.Only(3)
	ch, err := b.runChunk(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.failed == 0 || len(ch.problems) == 0 {
		t.Fatalf("bug 3 on ariths passed the checks: %d failed", ch.failed)
	}
	b.bugSet = bugs.None()
	if ch, err = b.runChunk(1, 1); err != nil || ch.failed != 0 {
		t.Fatalf("correct compiler failed the checks: %v %d %v", err, ch.failed, ch.problems)
	}
}

// A plans detection whose program misbehaves with every bug off is a
// false positive; the workload's real detections are not.
func TestFalsePositiveCheck(t *testing.T) {
	b := small(t, "plans", 30)
	ch, err := b.runChunk(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.res.Detections) == 0 || ch.failed != 0 {
		t.Fatalf("want detections and no failures, got %d detections, %d failed: %v",
			len(ch.res.Detections), ch.failed, ch.problems)
	}
	d := ch.res.Detections[0]
	d.Expected += "wrong\n"
	if !b.falsePositive(d) {
		t.Fatal("a wrong reference output passed the bugs-off re-test")
	}
}

// The traced pass reproduces the campaign's verdicts on every workload,
// and the check catches a changed verdict.
func TestTracedMatchesCampaign(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := small(t, w.name, 8)
			ch, err := b.runChunk(5, b.workers)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTraced(b)
			if w.family > 1 {
				for i := 0; i < 8; i += w.family {
					tr.family(5+int64(i), w.family)
				}
			} else {
				for i := 0; i < 8; i++ {
					tr.seed(5 + int64(i))
				}
			}
			if bad := mismatches(tr.keys, ch.keys); bad != 0 {
				t.Fatalf("%d verdicts differ:\ntraced %v\ncampaign %v", bad, tr.keys, ch.keys)
			}
			tr.keys[3].kind = difftest.VerdictDetection
			if mismatches(tr.keys, ch.keys) != 1 {
				t.Fatal("a changed verdict went unnoticed")
			}
		})
	}
}

func TestGoldenCheck(t *testing.T) {
	if p := checkGolden("ariths", defaultSeed+1, goldenEntry{}); p != nil {
		t.Fatalf("golden checked on a non-default seed: %v", p)
	}
	if p := checkGolden("ariths", defaultSeed, goldenEntry{Report: "x", Verdicts: "y"}); len(p) != 1 {
		t.Fatalf("wrong golden digests passed: %v", p)
	}
}

// A chunk's steal share comes off its wall time, and where the kernel
// reports CPU time the snapshot reads it.
func TestStealCorrection(t *testing.T) {
	c := cost{wall: time.Second, stolen: 0.25}
	if got := c.runWall(); got != 750*time.Millisecond {
		t.Fatalf("runWall = %v, want 750ms", got)
	}
	if c := (cost{wall: time.Second}); c.runWall() != time.Second {
		t.Fatalf("runWall without steal = %v, want 1s", c.runWall())
	}
	if runtime.GOOS == "linux" && readHostCPU().busy == 0 {
		t.Fatal("no busy CPU time read from /proc/stat")
	}
}
