// Package rebalance is the control plane for online cluster reshaping: it
// turns a placement-epoch transition (internal/placement's AddOSD diff)
// into a throttled background migration. The package owns the *schedule*
// — which PGs move when, how fast bytes may flow, how much runs in
// parallel — and reports movement against the minimal-remap bound; the
// *mechanics* of moving one PG (raw copy, log settle/replay, MDS cutover)
// are behind the Mover interface, implemented by the cluster layer.
// Kermarrec et al. and the Facebook warehouse study (PAPERS.md) both find
// migration traffic, not repair traffic, dominating operational cost in EC
// clusters: the throttle and the per-PG cutover stall are exactly the two
// knobs those papers argue an operator must hold.
package rebalance

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"tsue/internal/placement"
	"tsue/internal/sim"
)

// Config tunes the migration scheduler.
type Config struct {
	// RateBps caps the aggregate block-copy rate in bytes per second of
	// virtual time (0 = unthrottled). The cap spans all in-flight PGs.
	RateBps int64
}

// maxInFlightPGs bounds how many PGs migrate concurrently. Cutovers
// serialize on the cluster's fence regardless; this bounds the copy-phase
// parallelism.
const maxInFlightPGs = 2

// PGMoves is one placement group's share of a transition's diff.
type PGMoves struct {
	PG    int
	Moves []placement.Move
}

// Plan is a transition's full migration schedule: the per-PG move lists in
// deterministic order, plus the minimal-remap bound the movement will be
// judged against.
type Plan struct {
	FromEpoch, ToEpoch uint64
	PGs                []PGMoves
	TotalMoves         int
	// BoundBlocks is the minimal-remap lower bound for the transition
	// (placement.MinimalBound over the same stripe population the diff
	// covered).
	BoundBlocks float64
}

// BuildPlan groups a transition's moves by destination PG, both levels in
// deterministic order. moves must already reflect any physical remaps the
// caller overlays on the map diff.
func BuildPlan(from, to uint64, moves []placement.Move, boundBlocks float64) *Plan {
	perPG := make(map[int][]placement.Move)
	for _, mv := range moves {
		perPG[mv.PG] = append(perPG[mv.PG], mv)
	}
	pgs := make([]int, 0, len(perPG))
	for pg := range perPG {
		pgs = append(pgs, pg)
	}
	sort.Ints(pgs)
	plan := &Plan{FromEpoch: from, ToEpoch: to, BoundBlocks: boundBlocks, TotalMoves: len(moves)}
	for _, pg := range pgs {
		mvs := perPG[pg]
		slices.SortFunc(mvs, func(a, b placement.Move) int { return a.Blk.Compare(b.Blk) })
		plan.PGs = append(plan.PGs, PGMoves{PG: pg, Moves: mvs})
	}
	return plan
}

// Throttle is a token bucket over virtual time shared by every in-flight PG
// migration: Take blocks the calling process until n bytes of budget (at
// most one burst) have accrued at the configured rate.
type Throttle struct {
	rate  float64 // bytes/sec; <= 0 means unthrottled
	burst float64
	avail float64 // negative after a take larger than the burst
	last  time.Duration
}

// NewThrottle builds a throttle at rateBps bytes/second (0 disables). The
// bucket holds at most one second of budget, so an idle spell cannot bank
// an unbounded burst.
func NewThrottle(rateBps int64) *Throttle {
	return &Throttle{rate: float64(rateBps), burst: float64(rateBps)}
}

// Take consumes n bytes of budget, sleeping in virtual time as needed.
// Concurrent takers are served as the scheduler wakes them; fairness across
// PGs is not guaranteed, only the aggregate rate. A take larger than the
// burst waits for a full bucket and leaves the budget in debt, so the next
// take pays the excess.
func (t *Throttle) Take(p *sim.Proc, n int64) {
	if t == nil || t.rate <= 0 || n <= 0 {
		return
	}
	want := min(float64(n), t.burst)
	for {
		now := p.Now()
		t.avail += t.rate * (now - t.last).Seconds()
		t.last = now
		if t.avail > t.burst {
			t.avail = t.burst
		}
		if t.avail >= want {
			t.avail -= float64(n)
			return
		}
		need := (want - t.avail) / t.rate
		d := time.Duration(need * float64(time.Second))
		if d <= 0 {
			// Float rounding can leave avail a hair under want, truncating the
			// computed wait to zero — a 0ns sleep re-wakes at the same
			// virtual instant with nothing accrued, freezing the clock.
			// Guarantee progress.
			d = time.Microsecond
		}
		p.Sleep(d)
	}
}

// Outcome classifies how one PG's migration ended. A transition that loses
// an OSD mid-flight resolves every in-flight PG to Aborted or Finished
// against the liveness view instead of wedging the cluster.
type Outcome int

const (
	// OutcomeCommitted: the PG migrated and cut over on the normal path.
	OutcomeCommitted Outcome = iota
	// OutcomeFinished: an OSD relevant to the PG died mid-migration, but
	// the PG still completed its cutover — remaining copies reconstructed
	// from surviving stripe peers, orphaned overlay stashed for the
	// failure's recovery.
	OutcomeFinished
	// OutcomeAborted: the PG rolled back to the prior epoch — partial
	// copies retired, extracted overlay restored, foreground I/O re-opened
	// against the old homes.
	OutcomeAborted
)

// String returns the outcome's report name.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeFinished:
		return "finished"
	case OutcomeAborted:
		return "aborted"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// PGResult is one PG migration's accounting, produced by the Mover.
type PGResult struct {
	PG             int
	Outcome        Outcome
	CopiedBlocks   int
	CopiedBytes    int64
	RecopiedBlocks int
	// Reconstructed counts blocks whose copy was completed by K-shard
	// reconstruction at the new home because the old home died mid-flight
	// (failure-resolution "finish" policy).
	Reconstructed int
	// RestoredItems counts extracted overlay records replayed back into
	// their old homes by an abort.
	RestoredItems int
	// ReplayedItems / ReplayedBytes count pure-overlay log records that
	// followed blocks to their new homes (wire.MigrateLog → ReplayUpdate).
	ReplayedItems int
	ReplayedBytes int64
	// Stall is how long the PG's cutover held the cluster's update fence —
	// the foreground outage this PG's flip cost.
	Stall time.Duration
}

// Mover executes one PG migration end to end: bulk copy (paced through th),
// fence, settle/drain, catch-up, log replay, MDS cutover. Implemented by
// the cluster layer.
type Mover interface {
	MigratePG(p *sim.Proc, pg PGMoves, th *Throttle) (PGResult, error)
}

// Report aggregates a whole transition's migration.
type Report struct {
	FromEpoch, ToEpoch uint64
	PGsMigrated        int
	MovedBlocks        int
	MovedBytes         int64
	RecopiedBlocks     int
	ReplayedItems      int
	ReplayedBytes      int64
	// Outcomes holds every PG's per-migration accounting (including its
	// abort/finish resolution) in ascending PG order.
	Outcomes []PGResult
	// AbortedPGs / FinishedPGs count PGs resolved by the failure policies;
	// AbortedBytes is copy volume thrown away by aborts (excluded from
	// MovedBytes) and ReconstructedBlocks counts finish-path peer
	// reconstructions.
	AbortedPGs          int
	FinishedPGs         int
	AbortedBytes        int64
	ReconstructedBlocks int
	// BoundBlocks is the minimal-remap lower bound; ActualOverBound is
	// MovedBlocks relative to it (1.0 = optimal; 0 when the bound is 0,
	// which happens only when there are no stripes).
	BoundBlocks     float64
	ActualOverBound float64
	// MigrateTime is the whole migration's virtual wall time; StallTime
	// sums every PG's fenced cutover window and MaxStall is the worst one.
	MigrateTime time.Duration
	StallTime   time.Duration
	MaxStall    time.Duration
}

// Run executes the plan: up to maxInFlightPGs PGs migrate concurrently,
// block copies across all of them share one throttle, and per-PG results
// aggregate into the Report. The first Mover error aborts scheduling of
// further PGs (in-flight ones finish) and is returned.
func Run(env *sim.Env, p *sim.Proc, plan *Plan, cfg Config, mover Mover) (*Report, error) {
	th := NewThrottle(cfg.RateBps)
	sem := env.NewResource("rebalance-pgs", maxInFlightPGs)
	wg := sim.NewWaitGroup(env)
	rep := &Report{FromEpoch: plan.FromEpoch, ToEpoch: plan.ToEpoch, BoundBlocks: plan.BoundBlocks}
	start := p.Now()
	var firstErr error
	for _, pg := range plan.PGs {
		pg := pg
		wg.Add(1)
		env.Go(fmt.Sprintf("migrate-pg-%d", pg.PG), func(hp *sim.Proc) {
			defer wg.Done()
			sem.Acquire(hp)
			defer sem.Release()
			if firstErr != nil {
				return
			}
			res, err := mover.MigratePG(hp, pg, th)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("rebalance: pg %d: %w", pg.PG, err)
				}
				return
			}
			rep.Outcomes = append(rep.Outcomes, res)
			rep.ReconstructedBlocks += res.Reconstructed
			rep.StallTime += res.Stall
			if res.Stall > rep.MaxStall {
				rep.MaxStall = res.Stall
			}
			if res.Outcome == OutcomeAborted {
				// An aborted PG's copies were retired; its bytes are waste,
				// not movement.
				rep.AbortedPGs++
				rep.AbortedBytes += res.CopiedBytes
				return
			}
			if res.Outcome == OutcomeFinished {
				rep.FinishedPGs++
			}
			rep.PGsMigrated++
			rep.MovedBlocks += res.CopiedBlocks
			rep.MovedBytes += res.CopiedBytes
			rep.RecopiedBlocks += res.RecopiedBlocks
			rep.ReplayedItems += res.ReplayedItems
			rep.ReplayedBytes += res.ReplayedBytes
		})
	}
	wg.Wait(p)
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(rep.Outcomes, func(i, j int) bool { return rep.Outcomes[i].PG < rep.Outcomes[j].PG })
	rep.MigrateTime = p.Now() - start
	if rep.BoundBlocks > 0 {
		rep.ActualOverBound = float64(rep.MovedBlocks) / rep.BoundBlocks
	}
	return rep, nil
}
