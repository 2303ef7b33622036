package checker

import (
	"fmt"
	"testing"
)

// diamondSys is a diamond with unequal arms joining at X, plus a chain
// hanging off X: root→A1→…→A8→X, root→B1→X, X→C1→…→C4. Expand lists
// the B arm first, so a LIFO (depth-first) order explores the long A
// arm before the B shortcut: X is first stored at depth 9 even though
// its minimal depth is 2. With MaxDepth 10 the chain then appears
// clipped to a first-path search, while the minimal-depth space (max
// depth 8, on the A arm) fits entirely under the bound.
type diamondSys struct{ aLen, cLen int }

// Diamond state codes: 0 root, 1..aLen the A arm, 100 B1, 200 X,
// 200+k the chain.
func (d *diamondSys) Initial() State { return intState(0) }

func (d *diamondSys) Expand(s State) []Transition {
	step := func(v int) Transition {
		return Transition{Label: fmt.Sprintf("to-%d", v), Next: intState(v)}
	}
	switch v := int(s.(intState)); {
	case v == 0:
		return []Transition{step(100), step(1)} // B pushed first, A popped first (LIFO)
	case v >= 1 && v < d.aLen:
		return []Transition{step(v + 1)}
	case v == d.aLen:
		return []Transition{step(200)}
	case v == 100:
		return []Transition{step(200)}
	case v >= 200 && v < 200+d.cLen:
		return []Transition{step(v + 1)}
	}
	return nil
}

func (d *diamondSys) Inspect(State) []Violation { return nil }

// TestStealDepthClippingDeterministic: on a depth-clipped search the
// steal strategy's Truncated and MaxDepthReached must be derived from
// minimal depths — independent of which path stored a state first —
// and therefore stable across runs and worker counts. Before depth
// relaxation, a first-path order that reached X through the long arm
// recorded the chain beyond the bound and reported Truncated on a
// space that fits under it.
func TestStealDepthClippingDeterministic(t *testing.T) {
	sys := &diamondSys{aLen: 8, cLen: 4}
	const (
		wantStates  = 15 // root + A1..A8 + B1 + X + C1..C4
		wantMatched = 1  // X, reached by both arms
	)

	for _, workers := range []int{1, 4} {
		for run := 0; run < 10; run++ {
			res := Run(sys, Options{MaxDepth: 10, Strategy: StrategySteal, Workers: workers})
			if res.Truncated {
				t.Fatalf("workers=%d run=%d: truncated on a space whose minimal depths fit the bound", workers, run)
			}
			if res.StatesExplored != wantStates {
				t.Errorf("workers=%d run=%d: explored %d states, want %d", workers, run, res.StatesExplored, wantStates)
			}
			if res.MaxDepthReached != 8 {
				t.Errorf("workers=%d run=%d: MaxDepthReached=%d, want the deepest minimal depth 8",
					workers, run, res.MaxDepthReached)
			}
			if res.StatesMatched != wantMatched {
				t.Errorf("workers=%d run=%d: matched %d, want %d", workers, run, res.StatesMatched, wantMatched)
			}
		}
	}

	// With the bound below the minimal-depth diameter, clipping is real
	// and must be reported — again deterministically.
	for _, workers := range []int{1, 4} {
		for run := 0; run < 5; run++ {
			res := Run(sys, Options{MaxDepth: 5, Strategy: StrategySteal, Workers: workers})
			if !res.Truncated {
				t.Errorf("workers=%d run=%d: bound 5 clips the A arm but Truncated not set", workers, run)
			}
			if res.MaxDepthReached > 5 {
				t.Errorf("workers=%d run=%d: MaxDepthReached=%d exceeds the bound", workers, run, res.MaxDepthReached)
			}
		}
	}
}
