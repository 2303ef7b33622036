package checker

import (
	"runtime"
	"testing"
	"time"
)

// workState is a node of a pure tree: level and index within the level.
type workState struct{ level, idx uint64 }

func (s workState) Encode(buf []byte) []byte {
	return append(buf,
		byte(s.level),
		byte(s.idx), byte(s.idx>>8), byte(s.idx>>16), byte(s.idx>>24))
}

// workSys is a CPU-bound synthetic system: a fanout-ary tree where
// inspecting each state burns a deterministic amount of work, standing
// in for the Groovy handler interpretation that dominates real model
// expansion. A tree has no shared substructure, so the visited store
// never prunes and every strategy performs identical work.
type workSys struct {
	fanout, levels uint64
	spin           int
}

func (w *workSys) Initial() State { return workState{} }

func (w *workSys) Expand(s State) []Transition {
	st := s.(workState)
	if st.level >= w.levels {
		return nil
	}
	out := make([]Transition, 0, w.fanout)
	for i := uint64(0); i < w.fanout; i++ {
		out = append(out, Transition{
			Label: "child",
			Next:  workState{level: st.level + 1, idx: st.idx*w.fanout + i},
		})
	}
	return out
}

func (w *workSys) Inspect(s State) []Violation {
	st := s.(workState)
	x := st.idx + 1
	for i := 0; i < w.spin; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // never true: xorshift never maps nonzero to zero
		return []Violation{{Property: "impossible"}}
	}
	return nil
}

// TestStealSpeedupMultiCore asserts that the work-stealing strategy
// achieves a ≥2× speedup at GOMAXPROCS workers versus 1 worker on a
// machine with at least 4 cores (the CI runner; smaller machines and
// race-instrumented runs skip it).
func TestStealSpeedupMultiCore(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if raceEnabled {
		t.Skip("timing assertion skipped under the race detector")
	}
	if procs < 4 {
		t.Skipf("need ≥4 CPUs for the speedup assertion, have %d", procs)
	}

	sys := &workSys{fanout: 8, levels: 5, spin: 2000}

	measure := func(workers int) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 3; i++ { // best-of-3 damps scheduler noise
			o := Options{MaxDepth: 8, Strategy: StrategySteal, Workers: workers}
			start := time.Now()
			res := Run(sys, o)
			elapsed := time.Since(start)
			if res.Truncated {
				t.Fatal("workload unexpectedly truncated")
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best
	}

	t1 := measure(1)
	tn := measure(procs)
	speedup := float64(t1) / float64(tn)
	t.Logf("steal: 1 worker %v, %d workers %v → %.2fx speedup", t1, procs, tn, speedup)
	if speedup < 2.0 {
		t.Errorf("steal speedup %.2fx < 2.0x at %d workers", speedup, procs)
	}
}
