package rebalance

import (
	"fmt"
	"testing"
	"time"

	"tsue/internal/placement"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

func mv(ino uint64, stripe uint32, idx uint16, pg int, from, to wire.NodeID) placement.Move {
	return placement.Move{
		Blk: wire.BlockID{Ino: ino, Stripe: stripe, Index: idx},
		PG:  pg, From: from, To: to,
	}
}

func TestBuildPlanDeterministicGrouping(t *testing.T) {
	moves := []placement.Move{
		mv(2, 1, 0, 7, 1, 9),
		mv(1, 0, 3, 3, 2, 9),
		mv(1, 0, 1, 3, 4, 9),
		mv(1, 2, 0, 7, 5, 9),
	}
	plan := BuildPlan(0, 1, moves, 2.5)
	if plan.TotalMoves != 4 || plan.BoundBlocks != 2.5 {
		t.Fatalf("plan totals wrong: %+v", plan)
	}
	if len(plan.PGs) != 2 || plan.PGs[0].PG != 3 || plan.PGs[1].PG != 7 {
		t.Fatalf("PG grouping wrong: %+v", plan.PGs)
	}
	if plan.PGs[0].Moves[0].Blk.Index != 1 || plan.PGs[0].Moves[1].Blk.Index != 3 {
		t.Fatalf("moves not sorted: %+v", plan.PGs[0].Moves)
	}
	if plan.PGs[1].Moves[0].Blk.Ino != 1 {
		t.Fatalf("moves not sorted across inos: %+v", plan.PGs[1].Moves)
	}
}

func TestThrottlePacesVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	th := NewThrottle(1 << 20) // 1 MiB/s
	var elapsed time.Duration
	env.Go("taker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			th.Take(p, 1<<20)
		}
		elapsed = p.Now()
	})
	env.Run(0)
	env.Close()
	// 10 MiB at 1 MiB/s: the first token rides the initial burst window, the
	// rest pace out; allow 10% tolerance either way.
	if elapsed < 8*time.Second || elapsed > 11*time.Second {
		t.Fatalf("10 MiB at 1 MiB/s took %v", elapsed)
	}
}

func TestThrottleUnlimited(t *testing.T) {
	env := sim.NewEnv()
	th := NewThrottle(0)
	var elapsed time.Duration
	env.Go("taker", func(p *sim.Proc) {
		th.Take(p, 1<<30)
		elapsed = p.Now()
	})
	env.Run(0)
	env.Close()
	if elapsed != 0 {
		t.Fatalf("unthrottled Take slept %v", elapsed)
	}
}

// fakeMover counts concurrency and aggregates deterministically.
type fakeMover struct {
	env       *sim.Env
	inFlight  int
	maxSeen   int
	failPG    int // -1: never fail
	perPGWork time.Duration
}

func (f *fakeMover) MigratePG(p *sim.Proc, pg PGMoves, th *Throttle) (PGResult, error) {
	f.inFlight++
	if f.inFlight > f.maxSeen {
		f.maxSeen = f.inFlight
	}
	defer func() { f.inFlight-- }()
	var bytes int64
	for range pg.Moves {
		th.Take(p, 1<<10)
		bytes += 1 << 10
	}
	p.Sleep(f.perPGWork)
	if pg.PG == f.failPG {
		return PGResult{}, fmt.Errorf("boom")
	}
	return PGResult{
		PG: pg.PG, CopiedBlocks: len(pg.Moves), CopiedBytes: bytes,
		ReplayedItems: 1, ReplayedBytes: 10, Stall: time.Duration(pg.PG) * time.Millisecond,
	}, nil
}

func planN(pgs, movesPer int) *Plan {
	var moves []placement.Move
	for pg := 0; pg < pgs; pg++ {
		for i := 0; i < movesPer; i++ {
			moves = append(moves, mv(1, uint32(pg*movesPer+i), 0, pg, 1, 2))
		}
	}
	return BuildPlan(0, 1, moves, float64(pgs*movesPer)/1.5)
}

func TestRunAggregatesAndBoundsConcurrency(t *testing.T) {
	env := sim.NewEnv()
	fm := &fakeMover{env: env, failPG: -1, perPGWork: time.Millisecond}
	var rep *Report
	var err error
	env.Go("run", func(p *sim.Proc) {
		rep, err = Run(env, p, planN(8, 3), Config{}, fm)
	})
	env.Run(0)
	env.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fm.maxSeen > 2 {
		t.Fatalf("concurrency %d exceeded maxInFlightPGs", fm.maxSeen)
	}
	if rep.PGsMigrated != 8 || rep.MovedBlocks != 24 || rep.MovedBytes != 24<<10 {
		t.Fatalf("aggregation wrong: %+v", rep)
	}
	if rep.ReplayedItems != 8 || rep.StallTime != 28*time.Millisecond || rep.MaxStall != 7*time.Millisecond {
		t.Fatalf("stall/replay aggregation wrong: %+v", rep)
	}
	if rep.ActualOverBound < 1.49 || rep.ActualOverBound > 1.51 {
		t.Fatalf("ActualOverBound = %v", rep.ActualOverBound)
	}
}

func TestRunPropagatesMoverError(t *testing.T) {
	env := sim.NewEnv()
	fm := &fakeMover{env: env, failPG: 3}
	var err error
	env.Go("run", func(p *sim.Proc) {
		_, err = Run(env, p, planN(6, 1), Config{}, fm)
	})
	env.Run(0)
	env.Close()
	if err == nil {
		t.Fatal("mover error swallowed")
	}
}
