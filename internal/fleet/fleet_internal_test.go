// White-box tests of the fleet protocol mechanics: lease expiry and
// re-issue, duplicate-result discard, the verdict codec, and the
// drain-to-resumable-journal path. The end-to-end coordinator/worker
// determinism tests live in e2e_test.go.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ratte/internal/bugs"
	"ratte/internal/difftest"
)

func testCampaign(programs int) difftest.CampaignConfig {
	return difftest.CampaignConfig{
		Preset:   "ariths",
		Programs: programs,
		Size:     14,
		Seed:     97,
		Bugs:     bugs.Only(bugs.RemoveDeadValuesCall),
	}
}

// post drives one handler directly — no network — and decodes the
// JSON response into out (when the status is 200 and out is non-nil).
func post(t *testing.T, handler func(w *httptest.ResponseRecorder, body []byte), body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	handler(w, data)
	if w.Code == 200 && out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode response: %v (%s)", err, w.Body.String())
		}
	}
	return w.Code
}

func register(t *testing.T, c *Coordinator) string {
	t.Helper()
	fp, err := difftest.CampaignFingerprint(c.camp)
	if err != nil {
		t.Fatal(err)
	}
	var resp registerResponse
	code := post(t, func(w *httptest.ResponseRecorder, body []byte) {
		c.handleRegister(w, httptest.NewRequest("POST", pathRegister, bytes.NewReader(body)))
	}, registerRequest{Fingerprint: fp}, &resp)
	if code != 200 {
		t.Fatalf("register: status %d", code)
	}
	return resp.WorkerID
}

func lease(t *testing.T, c *Coordinator, workerID string) leaseResponse {
	t.Helper()
	var resp leaseResponse
	code := post(t, func(w *httptest.ResponseRecorder, body []byte) {
		c.handleLease(w, httptest.NewRequest("POST", pathLease, bytes.NewReader(body)))
	}, leaseRequest{WorkerID: workerID}, &resp)
	if code != 200 {
		t.Fatalf("lease: status %d", code)
	}
	return resp
}

func heartbeat(t *testing.T, c *Coordinator, workerID string, shardID int, epoch int64) heartbeatResponse {
	t.Helper()
	var resp heartbeatResponse
	code := post(t, func(w *httptest.ResponseRecorder, body []byte) {
		c.handleHeartbeat(w, httptest.NewRequest("POST", pathHeartbeat, bytes.NewReader(body)))
	}, heartbeatRequest{WorkerID: workerID, ShardID: shardID, Epoch: epoch}, &resp)
	if code != 200 {
		t.Fatalf("heartbeat: status %d", code)
	}
	return resp
}

// uploadShard runs the shard's seed range for real and posts the
// verdicts, returning the coordinator's response and HTTP status.
func uploadShard(t *testing.T, c *Coordinator, workerID string, s ShardLease) (resultResponse, int) {
	t.Helper()
	vs, err := difftest.RunCampaignRange(context.Background(), c.camp, s.First, s.Count, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeVerdicts(vs)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", pathResult+"?shard="+jsonInt(s.ID)+"&worker="+workerID, bytes.NewReader(body))
	w := httptest.NewRecorder()
	c.handleResult(w, req)
	var resp resultResponse
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, w.Code
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestVerdictCodecRoundTrip: the gzip JSONL codec preserves every
// verdict field the merge depends on.
func TestVerdictCodecRoundTrip(t *testing.T) {
	cfg := testCampaign(10)
	want, err := difftest.RunCampaignRange(context.Background(), cfg, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeVerdicts(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeVerdicts(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.DiffVerdicts(want, got); d != "" {
		t.Fatalf("codec round trip changed verdicts: %s", d)
	}
}

// TestLeaseExpiryReissue: a shard whose holder goes silent past the
// lease TTL is re-issued to the next worker under a higher epoch, the
// stale holder's heartbeat reports the lease lost, and the late
// duplicate result is discarded — while the merged campaign still
// completes with exactly the serial run's report.
func TestLeaseExpiryReissue(t *testing.T) {
	cfg := testCampaign(8)
	c, err := NewCoordinator(CoordinatorConfig{
		Campaign: cfg, ShardSize: 4, LeaseTTL: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c)
	w2 := register(t, c)

	// w1 takes shard 0 and "crashes": no heartbeat, no result.
	l1 := lease(t, c, w1)
	if l1.Shard == nil || l1.Shard.ID != 0 {
		t.Fatalf("w1 lease: got %+v, want shard 0", l1)
	}
	time.Sleep(50 * time.Millisecond) // past the TTL

	// w2's lease sweeps the expired shard and takes it back over.
	l2 := lease(t, c, w2)
	if l2.Shard == nil || l2.Shard.ID != 0 {
		t.Fatalf("w2 lease after expiry: got %+v, want shard 0 re-issued", l2)
	}
	if l2.Shard.Epoch <= l1.Shard.Epoch {
		t.Fatalf("re-issued epoch %d not above original %d", l2.Shard.Epoch, l1.Shard.Epoch)
	}
	if got := c.reissued.Value(); got != 1 {
		t.Fatalf("reissued counter = %d, want 1", got)
	}

	// The presumed-dead w1 heartbeats its stale epoch: lease lost.
	if hb := heartbeat(t, c, w1, l1.Shard.ID, l1.Shard.Epoch); !hb.Lost {
		t.Fatal("stale-epoch heartbeat should report the lease lost")
	}
	// w2's heartbeat on the live epoch keeps it.
	if hb := heartbeat(t, c, w2, l2.Shard.ID, l2.Shard.Epoch); hb.Lost {
		t.Fatal("live-epoch heartbeat should hold the lease")
	}

	// w2 completes the re-issued shard; w1's late duplicate is discarded.
	if resp, code := uploadShard(t, c, w2, *l2.Shard); code != 200 || !resp.Accepted {
		t.Fatalf("w2 upload: code %d accepted %v", code, resp.Accepted)
	}
	if resp, code := uploadShard(t, c, w1, *l1.Shard); code != 200 || resp.Accepted {
		t.Fatalf("late duplicate upload: code %d accepted %v, want discarded", code, resp.Accepted)
	}
	if got := c.duplicates.Value(); got != 1 {
		t.Fatalf("duplicates counter = %d, want 1", got)
	}

	// Finish the campaign and check the merge against serial.
	l3 := lease(t, c, w2)
	if l3.Shard == nil || l3.Shard.ID != 1 {
		t.Fatalf("second shard lease: got %+v", l3)
	}
	resp, _ := uploadShard(t, c, w2, *l3.Shard)
	if !resp.Accepted || !resp.Done {
		t.Fatalf("final upload: %+v, want accepted and done", resp)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := difftest.ReportText(want), difftest.ReportText(res); a != b {
		t.Fatalf("merged report differs from serial after re-issue:\n--- serial\n%s--- fleet\n%s", a, b)
	}
}

// TestDrainWritesResumableJournal: cancelling Wait mid-campaign
// freezes the merge at the contiguous prefix, every merged verdict is
// already journaled, and resuming that journal lands on the
// uninterrupted run's exact report — the coordinator SIGINT contract.
func TestDrainWritesResumableJournal(t *testing.T) {
	cfg := testCampaign(12)
	fresh, err := difftest.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	jcfg := cfg
	j, err := difftest.CreateJournal(path, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	jcfg.Journal = j
	c, err := NewCoordinator(CoordinatorConfig{Campaign: jcfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c)
	l := lease(t, c, w1)
	if resp, code := uploadShard(t, c, w1, *l.Shard); code != 200 || !resp.Accepted {
		t.Fatalf("upload: code %d resp %+v", code, resp)
	}

	// "SIGINT": cancel Wait. The partial result is the merged prefix.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := c.Wait(ctx)
	if err == nil {
		t.Fatal("cancelled Wait returned no error")
	}
	if len(partial.Verdicts) != 4 {
		t.Fatalf("partial result has %d verdicts, want the 4 merged", len(partial.Verdicts))
	}
	// Draining: a late shard result is refused and the worker told done.
	l2 := lease(t, c, w1)
	if !l2.Done {
		t.Fatalf("lease while draining: %+v, want done", l2)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the journal holds exactly the merged prefix, and a second
	// fleet run over it finishes to the uninterrupted report.
	j2, resumed, err := difftest.OpenJournalForResume(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 4 {
		t.Fatalf("journal resumed %d verdicts, want 4", len(resumed))
	}
	rcfg := cfg
	rcfg.Journal = j2
	rcfg.Resumed = resumed
	c2, err := NewCoordinator(CoordinatorConfig{Campaign: rcfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c2)
	for {
		l := lease(t, c2, w)
		if l.Done {
			break
		}
		if l.Shard == nil {
			t.Fatal("resumed coordinator idle with shards outstanding")
		}
		if l.Shard.ID == 0 {
			t.Fatal("resumed coordinator re-leased the journaled shard")
		}
		if resp, code := uploadShard(t, c2, w, *l.Shard); code != 200 || !resp.Accepted {
			t.Fatalf("resume upload: code %d resp %+v", code, resp)
		}
	}
	res, err := c2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if d := difftest.DiffVerdicts(fresh.Verdicts, res.Verdicts); d != "" {
		t.Fatalf("resumed fleet verdicts differ from fresh: %s", d)
	}
	if a, b := difftest.ReportText(fresh), difftest.ReportText(res); a != b {
		t.Fatalf("resumed fleet report differs from fresh:\n--- fresh\n%s--- resumed\n%s", a, b)
	}
}

// TestJournalFailureStopsMerge: a journal append that fails stops the
// merge at the failed verdict, as in a single-process campaign, and
// Wait returns the failure with that partial result.
func TestJournalFailureStopsMerge(t *testing.T) {
	cfg := testCampaign(12)
	j, err := difftest.CreateJournal(filepath.Join(t.TempDir(), "closed.jsonl"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := register(t, c)
	for i := 0; i < 2; i++ {
		l := lease(t, c, w)
		if l.Shard == nil {
			t.Fatalf("lease %d: no shard", i)
		}
		if resp, code := uploadShard(t, c, w, *l.Shard); code != 200 || !resp.Accepted || resp.Done {
			t.Fatalf("upload %d: code %d resp %+v", i, code, resp)
		}
	}
	if c.Merged() != 1 {
		t.Fatalf("merged %d seeds, want only the verdict whose append failed", c.Merged())
	}
	res, err := c.Wait(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "fleet: journal:") {
		t.Fatalf("Wait err = %v, want a fleet: journal: error", err)
	}
	if len(res.Verdicts) != 1 || res.Programs != 1 {
		t.Fatalf("partial result has %d verdicts, %d programs; want 1", len(res.Verdicts), res.Programs)
	}
}

// TestShardValidation: a result whose verdict stream does not match
// the shard's exact seed range is rejected, not merged.
func TestShardValidation(t *testing.T) {
	cfg := testCampaign(8)
	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	w1 := register(t, c)
	l := lease(t, c, w1)

	// Wrong count.
	vs, err := difftest.RunCampaignRange(context.Background(), cfg, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := encodeVerdicts(vs)
	rec := httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST", pathResult+"?shard=0&worker="+w1, bytes.NewReader(body)))
	if rec.Code == 200 {
		t.Fatal("short verdict stream accepted")
	}

	// Wrong seeds (shard 1's verdicts posted as shard 0).
	vs, err = difftest.RunCampaignRange(context.Background(), cfg, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = encodeVerdicts(vs)
	rec = httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST", pathResult+"?shard=0&worker="+w1, bytes.NewReader(body)))
	if rec.Code == 200 {
		t.Fatal("mis-seeded verdict stream accepted")
	}

	// The shard is still completable by the honest path.
	if resp, code := uploadShard(t, c, w1, *l.Shard); code != 200 || !resp.Accepted {
		t.Fatalf("honest upload after rejections: code %d resp %+v", code, resp)
	}
}

// TestFamilyShardAlignment: auto shard sizing in family mode lands on
// family-boundary multiples, so workers never split a mutation family.
func TestFamilyShardAlignment(t *testing.T) {
	cfg := difftest.CampaignConfig{
		Preset: "ariths", Programs: 30, Size: 12, Seed: 1,
		FamilySize: 4, Batched: true,
	}
	c, err := NewCoordinator(CoordinatorConfig{Campaign: cfg, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.shards {
		if s.first%4 != 0 {
			t.Fatalf("shard %d starts at %d, not family-aligned", s.id, s.first)
		}
		if s.count%4 != 0 && s.first+s.count != cfg.Programs {
			t.Fatalf("shard %d count %d not family-aligned", s.id, s.count)
		}
	}
}

// TestStopAtFirstRejected: the fleet cannot honour StopAtFirst's
// early-exit semantics deterministically, so it refuses upfront.
func TestStopAtFirstRejected(t *testing.T) {
	cfg := testCampaign(8)
	cfg.StopAtFirst = true
	if _, err := NewCoordinator(CoordinatorConfig{Campaign: cfg}); err == nil {
		t.Fatal("StopAtFirst coordinator built, want refusal")
	}
}
