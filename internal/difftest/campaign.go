// The campaign engine. A campaign is one loop over work units — a
// single seed, or in family mode one mutation family — each generated
// (generateUnit) and tested (testUnit) by code that depends only on
// (config, seed). runCampaign either walks the units inline or spreads
// them over a two-stage pipeline; both feed one sequencer, which owns
// everything order-dependent: the CampaignResult, resumed-verdict
// splicing, telemetry and coverage folds, the journal and the
// StopAtFirst cut. Serial, parallel, resumed and fleet-merged campaigns
// agree byte for byte because they share that one sequencer.
package difftest

import (
	"context"
	"fmt"
	"sync"

	"ratte/internal/compiler"
	"ratte/internal/coverage"
	"ratte/internal/gen"
)

// RunCampaign generates Programs programs with Ratte's semantics-guided
// generator and differentially tests each one.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return runCampaign(context.Background(), cfg, 1)
}

// RunCampaignCtx is RunCampaign under a caller context: cancelling ctx
// (a signal handler, a test deadline) stops the campaign after the
// in-flight seed and returns the partial result together with
// ctx.Err(), with every completed verdict already journaled — the
// partial run is resumable via CampaignConfig.Resumed.
func RunCampaignCtx(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return runCampaign(ctx, cfg, 1)
}

// RunCampaignParallel runs the same campaign as RunCampaign across a
// persistent pool of worker goroutines — the shape of the paper's
// overnight runs on an 8-core laptop. Results are byte-identical to
// RunCampaign for any worker count.
func RunCampaignParallel(cfg CampaignConfig, workers int) (*CampaignResult, error) {
	return runCampaign(context.Background(), cfg, workers)
}

// RunCampaignParallelCtx is RunCampaignParallel under a caller context,
// with RunCampaignCtx's cancellation contract.
func RunCampaignParallelCtx(ctx context.Context, cfg CampaignConfig, workers int) (*CampaignResult, error) {
	return runCampaign(ctx, cfg, workers)
}

// Sequencer folds verdicts into a campaign result in seed order — the
// merge face of the campaign engine, used by the fleet coordinator to
// splice shard uploads. Each Add records the verdict, feeds the
// campaign's Telemetry and Coverage, and appends it to the Journal
// unless its seed is in cfg.Resumed (already journaled). A Sequencer is
// not safe for concurrent use.
type Sequencer struct {
	cfg CampaignConfig
	res *CampaignResult
	err error // first journal failure; every later Add returns it
}

// NewSequencer starts an empty merge of the campaign cfg.
func NewSequencer(cfg CampaignConfig) *Sequencer {
	res := &CampaignResult{ByOracle: make(map[Oracle]int)}
	if len(cfg.Plans) > 0 {
		res.Plans = len(cfg.Plans)
		res.PlanSet = compiler.PlanSetFingerprint(cfg.Plans)
	}
	return &Sequencer{cfg: cfg, res: res}
}

// Add sequences the next verdict. After a journal write fails, the
// verdict that failed stays recorded and Add records nothing more,
// returning that error.
func (s *Sequencer) Add(v Verdict) error {
	_, err := s.add(v, nil)
	return err
}

// Len returns the number of verdicts sequenced.
func (s *Sequencer) Len() int { return s.res.Programs }

// Result returns the campaign result sequenced so far.
func (s *Sequencer) Result() *CampaignResult { return s.res }

// add is Add with the verdict's detection record (nil rebuilds it from
// the verdict); it reports whether the verdict is a detection.
func (s *Sequencer) add(v Verdict, det *Detection) (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	isDetection := s.res.record(v, det)
	s.cfg.Telemetry.onVerdict(v)
	s.cfg.Coverage.onVerdict(v)
	if s.cfg.Journal == nil {
		return isDetection, nil
	}
	if _, resumed := s.cfg.Resumed[v.Seed]; resumed {
		return isDetection, nil
	}
	t0 := s.cfg.Telemetry.stageStart()
	s.err = s.cfg.Journal.Append(v)
	s.cfg.Telemetry.journalDone(t0)
	return isDetection, s.err
}

// sequencer re-sequences one engine run's seed outcomes: outcomes that
// arrive ahead of the next seed wait in a reorder buffer, resumed
// verdicts are spliced in at their positions, and the run stops at the
// first generation error, journal error, aborted seed or (under
// StopAtFirst) detection.
type sequencer struct {
	Sequencer
	next    int                 // index of the next seed to sequence
	pending map[int]seedOutcome // outcomes that arrived ahead of next
	genErr  error               // the first generation failure in seed order
	stopped bool                // nothing more will be sequenced
	cut     bool                // StopAtFirst fired
}

func newSequencer(cfg *CampaignConfig) *sequencer {
	return &sequencer{Sequencer: *NewSequencer(*cfg)}
}

// offer hands over seed index idx's outcome and sequences every seed it
// unblocks. Outcomes of resumed seeds are dropped: the journal's verdict
// stands in for them.
func (s *sequencer) offer(idx int, out seedOutcome) {
	if s.stopped {
		return
	}
	if _, resumed := s.cfg.Resumed[s.cfg.Seed+int64(idx)]; resumed {
		return
	}
	if idx != s.next {
		if s.pending == nil {
			s.pending = make(map[int]seedOutcome)
		}
		s.pending[idx] = out
		return
	}
	s.take(out)
	s.advance()
}

// advance sequences resumed verdicts and buffered outcomes until the
// next seed's outcome is still missing.
func (s *sequencer) advance() {
	for !s.stopped && s.next < s.cfg.Programs {
		if v, ok := s.cfg.Resumed[s.cfg.Seed+int64(s.next)]; ok {
			s.take(seedOutcome{verdict: v})
			continue
		}
		out, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.take(out)
	}
}

// take sequences the next seed's outcome.
func (s *sequencer) take(out seedOutcome) {
	switch {
	case out.genErr != nil:
		s.genErr, s.stopped = out.genErr, true
		return
	case out.aborted:
		s.stopped = true
		return
	}
	s.next++
	isDetection, err := s.add(out.verdict, out.detection)
	s.cut = isDetection && s.cfg.StopAtFirst
	s.stopped = err != nil || s.cut
}

// done reports whether the run needs no further outcomes.
func (s *sequencer) done() bool { return s.stopped || s.next >= s.cfg.Programs }

// result is the run's return value: a generation failure discards the
// result, a journal failure or an unfinished run (ctx cancelled)
// returns the partial one.
func (s *sequencer) result(ctx context.Context) (*CampaignResult, error) {
	switch {
	case s.genErr != nil:
		return nil, fmt.Errorf("difftest: generation failed: %w", s.genErr)
	case s.err != nil:
		return s.res, fmt.Errorf("difftest: journal: %w", s.err)
	case !s.cut && s.next < s.cfg.Programs:
		return s.res, ctx.Err()
	}
	return s.res, nil
}

// unitSize is the number of seeds in one work unit: a mutation family
// in family mode, one seed otherwise. Unit boundaries are multiples of
// unitSize; the last unit may be short.
func unitSize(cfg *CampaignConfig) int {
	if familyActive(cfg) {
		return cfg.FamilySize
	}
	return 1
}

// unitResumed reports whether every seed of the unit starting at seed
// index first is in the resume map, so the unit need not run.
func unitResumed(cfg *CampaignConfig, first int) bool {
	if len(cfg.Resumed) == 0 {
		return false
	}
	for i := first; i < first+unitSize(cfg) && i < cfg.Programs; i++ {
		if _, ok := cfg.Resumed[cfg.Seed+int64(i)]; !ok {
			return false
		}
	}
	return true
}

// generated is one unit's generation-stage product.
type generated struct {
	prog *gen.Program
	sf   *StageFailure
	err  error
	// cov is the seed's coverage map, created here so one map spans the
	// seed's whole pipeline (nil when coverage is off, and always in
	// family mode, which runs uncovered).
	cov *coverage.Map
}

// generateUnit generates the program of the unit starting at seed
// index first: the seed's program, or the family's base program.
func generateUnit(cfg *CampaignConfig, first int) generated {
	var cov *coverage.Map
	if !familyActive(cfg) {
		cov = cfg.Coverage.newSeedMap()
	}
	p, sf, err := generateStage(cfg, cfg.Seed+int64(first), cov)
	return generated{prog: p, sf: sf, err: err, cov: cov}
}

// testUnit tests a generated unit and returns one outcome per seed of
// the unit, in seed order.
func testUnit(ctx context.Context, cfg *CampaignConfig, first int, g generated) []seedOutcome {
	seed := cfg.Seed + int64(first)
	count := min(unitSize(cfg), cfg.Programs-first)
	if g.err != nil {
		outs := make([]seedOutcome, count)
		for j := range outs {
			outs[j].genErr = g.err
		}
		return outs
	}
	if g.sf != nil {
		outs := unitFailure(seed, count, g.sf)
		outs[0].verdict.Coverage = g.cov.Summary()
		return outs
	}
	if familyActive(cfg) {
		return runFamily(ctx, cfg, seed, count, g.prog)
	}
	return []seedOutcome{testSeed(ctx, cfg, seed, g.prog, g.cov)}
}

// unitFailure records one contained failure for each of the count seeds
// from firstSeed: the unit never produced a testable program.
func unitFailure(firstSeed int64, count int, sf *StageFailure) []seedOutcome {
	outs := make([]seedOutcome, count)
	for j := range outs {
		outs[j] = seedFailure(firstSeed+int64(j), sf)
	}
	return outs
}

// runCampaign is the campaign engine behind every entry point. With at
// most one worker it walks the units inline in the caller's goroutine.
// Otherwise it runs a two-stage pipeline over bounded channels: a
// generation stage produces programs while a testing stage runs them,
// so generation of unit i+k overlaps with compilation and execution of
// unit i, and `workers` bounds the goroutines across both stages.
// Either way outcomes pass through the one sequencer, so verdicts,
// journals and reports are byte-identical for any worker count. Under
// StopAtFirst, or once the sequencer stops, the pipeline is cancelled
// and drained. Cancelling ctx returns the partial, already-journaled
// result with ctx.Err().
func runCampaign(parent context.Context, cfg CampaignConfig, workers int) (*CampaignResult, error) {
	cfg.Telemetry.begin(cfg.Programs)
	cfg.Telemetry.attachJournal(cfg.Journal)
	cfg.Telemetry.attachPlans(cfg.Plans)
	seq := newSequencer(&cfg)
	seq.advance() // a resumed prefix needs no outcomes
	step := unitSize(&cfg)

	if workers <= 1 {
		for first := 0; first < cfg.Programs && !seq.done() && parent.Err() == nil; first += step {
			if unitResumed(&cfg, first) {
				continue
			}
			for j, out := range testUnit(parent, &cfg, first, generateUnit(&cfg, first)) {
				seq.offer(first+j, out)
			}
		}
		return seq.result(parent)
	}
	if seq.done() {
		return seq.result(parent)
	}

	type program struct {
		first int
		g     generated
	}
	type outcome struct {
		first int
		outs  []seedOutcome
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Stage sizing: generation and testing are both CPU-bound; testing
	// (4 compilations + up to 4 executions) is the heavier stage, so it
	// gets at least half the pool.
	genWorkers := max(workers/2, 1)
	testWorkers := max(workers-genWorkers, 1)

	// One slot per worker lets every worker finish a unit without
	// waiting on the next stage, while still bounding the programs in
	// flight.
	units := make(chan int)
	programs := make(chan program, workers)
	outcomes := make(chan outcome, workers)

	// Unit feeder. Fully resumed units never enter the pipeline — the
	// sequencer splices their recorded verdicts in at their positions.
	go func() {
		defer close(units)
		for first := 0; first < cfg.Programs; first += step {
			if unitResumed(&cfg, first) {
				continue
			}
			select {
			case units <- first:
			case <-ctx.Done():
				return
			}
		}
	}()

	var genWG sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		genWG.Add(1)
		go func() {
			defer genWG.Done()
			for first := range units {
				select {
				case programs <- program{first, generateUnit(&cfg, first)}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		genWG.Wait()
		close(programs)
	}()

	var testWG sync.WaitGroup
	for w := 0; w < testWorkers; w++ {
		testWG.Add(1)
		go func() {
			defer testWG.Done()
			for p := range programs {
				select {
				case outcomes <- outcome{p.first, testUnit(ctx, &cfg, p.first, p.g)}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		testWG.Wait()
		close(outcomes)
	}()

	for o := range outcomes { // drain even after stopping, so the stages exit
		for j, out := range o.outs {
			seq.offer(o.first+j, out)
		}
		if seq.done() {
			cancel()
		}
	}
	return seq.result(parent)
}
