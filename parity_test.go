// Per-worker parity gate for the work-stealing strategy: with frontier
// recycling (epoch-based reclamation) the fixed per-state overhead it
// pays over sequential DFS must stay small, so that
// adding workers buys speedup instead of repaying overhead. Before
// PR 8 steal at workers=1 ran at ~0.3× DFS throughput on this
// workload; recycling brought it to ~1×. The gate bounds the ratio
// well below the observed value so shared-runner noise cannot trip it,
// while still catching a regression to the allocate-per-state path.
package iotsan_test

import (
	"testing"
	"time"

	"iotsan/internal/checker"
	"iotsan/internal/experiments"
)

// measureParityPair interleaves DFS and one steal-at-workers=1 run per
// repetition (both sides sample the same machine conditions) and
// returns each side's best states/s over the repetitions.
func measureParityPair(t *testing.T, m interface{ System() checker.System }, copts checker.Options,
	reps int) (dfsRate, stealRate float64) {
	t.Helper()
	for i := 0; i < reps; i++ {
		o := copts
		o.Strategy = checker.StrategyDFS
		start := time.Now()
		rd := checker.Run(m.System(), o)
		sd := time.Since(start).Seconds()
		o.Strategy = checker.StrategySteal
		o.Workers = 1
		start = time.Now()
		rs := checker.Run(m.System(), o)
		ss := time.Since(start).Seconds()
		if rate := float64(rd.StatesExplored) / sd; rate > dfsRate {
			dfsRate = rate
		}
		if rate := float64(rs.StatesExplored) / ss; rate > stealRate {
			stealRate = rate
		}
	}
	return dfsRate, stealRate
}

// TestStealPerWorkerParity: work-stealing at a single worker must reach
// at least half the sequential DFS throughput on the shared perf
// workload (paired best-of-5). The measured post-recycling ratio is
// ~1.0×; the seed's was ~0.3×.
func TestStealPerWorkerParity(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	m, copts, desc, err := experiments.ParallelCheckWorkload()
	if err != nil {
		t.Fatal(err)
	}
	dfs, steal := measureParityPair(t, m, copts, 5)
	ratio := steal / dfs
	t.Logf("%s: dfs %.0f states/s, steal=1 %.0f states/s → %.2fx", desc, dfs, steal, ratio)
	if ratio < 0.5 {
		t.Errorf("steal=1 runs at %.2fx of DFS throughput, want >= 0.5x", ratio)
	}
}
