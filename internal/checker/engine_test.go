package checker

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// multiViolSys raises two violations on every transition — it exercises
// the MaxViolations cap mid-expansion (the old checker consulted limits
// only once per loop iteration and overshot).
type multiViolSys struct{ width int }

type intState int

func (s intState) Encode(buf []byte) []byte { return append(buf, byte(s), byte(s>>8)) }

func (m *multiViolSys) Initial() State { return intState(0) }

func (m *multiViolSys) Expand(s State) []Transition {
	v := int(s.(intState))
	if v >= m.width {
		return nil
	}
	n := v + 1
	return []Transition{{
		Label: fmt.Sprintf("step-%d", n),
		Next:  intState(n),
		Violations: []Violation{
			{Property: "p-even", Detail: fmt.Sprintf("at %d", n)},
			{Property: "p-odd", Detail: fmt.Sprintf("at %d", n)},
		},
	}}
}

func (m *multiViolSys) Inspect(State) []Violation { return nil }

func violationKeys(res *Result) []string {
	var keys []string
	for _, f := range res.Violations {
		keys = append(keys, f.Property+"\x00"+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

func strategies() map[string]Options {
	return map[string]Options{
		"dfs":     {Strategy: StrategyDFS},
		"steal":   {Strategy: StrategySteal},
		"steal-1": {Strategy: StrategySteal, Workers: 1},
		"steal-4": {Strategy: StrategySteal, Workers: 4},
	}
}

// TestMaxViolationsNeverOvershot: even when a single transition raises
// several violations, the cap is exact for every strategy.
func TestMaxViolationsNeverOvershot(t *testing.T) {
	for name, base := range strategies() {
		for _, cap := range []int{1, 3} {
			opts := base
			opts.MaxDepth = 64
			opts.MaxViolations = cap
			res := Run(&multiViolSys{width: 40}, opts)
			if len(res.Violations) != cap {
				t.Errorf("%s cap=%d: got %d violations", name, cap, len(res.Violations))
			}
			if !res.Truncated {
				t.Errorf("%s cap=%d: Truncated not set", name, cap)
			}
		}
	}
}

// TestTruncationLimits: MaxStates, MaxDepth, and Deadline all mark the
// result truncated, for every strategy. MaxStates is exact: the
// work-stealing strategy claims each explored slot with a CAS against
// the cap, so no worker count overshoots it.
func TestTruncationLimits(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 64
		opts.MaxStates = 50
		res := Run(&chainSys{bound: 30, bad: -1}, opts)
		if !res.Truncated {
			t.Errorf("%s: MaxStates run not truncated", name)
		}
		if res.StatesExplored != 50 {
			t.Errorf("%s: explored %d states, want exactly the cap 50", name, res.StatesExplored)
		}

		opts = base
		opts.MaxDepth = 3
		res = Run(&chainSys{bound: 30, bad: -1}, opts)
		if res.MaxDepthReached > 3 {
			t.Errorf("%s: depth %d exceeds bound 3", name, res.MaxDepthReached)
		}
		if !res.Truncated {
			t.Errorf("%s: MaxDepth run not truncated", name)
		}

		opts = base
		opts.MaxDepth = 64
		opts.Deadline = time.Nanosecond
		res = Run(&chainSys{bound: 30, bad: -1}, opts)
		if !res.Truncated {
			t.Errorf("%s: Deadline run not truncated", name)
		}
	}
}

// TestBitstateFalsePositives: with a tiny bit array the bitstate store
// reports unseen states as matched (supertrace's completeness
// trade-off), so exploration shrinks versus the exhaustive store and
// StatesMatched inflates beyond the true duplicate count.
func TestBitstateFalsePositives(t *testing.T) {
	for name, base := range strategies() {
		ex := base
		ex.MaxDepth = 24
		exRes := Run(&chainSys{bound: 18, bad: -1}, ex)

		bs := base
		bs.MaxDepth = 24
		bs.Store = Bitstate
		bs.BitstateBits = 10 // 1024 bits — far below the state count
		bsRes := Run(&chainSys{bound: 18, bad: -1}, bs)

		if bsRes.StatesExplored >= exRes.StatesExplored {
			t.Errorf("%s: bitstate explored %d, want fewer than exhaustive %d (false positives must prune)",
				name, bsRes.StatesExplored, exRes.StatesExplored)
		}
		if bsRes.StatesMatched == 0 {
			t.Errorf("%s: bitstate matched no states under a saturated bit array", name)
		}
		if bsRes.StatesStored > 1<<10 {
			t.Errorf("%s: bitstate stored %d > bit capacity", name, bsRes.StatesStored)
		}
	}
}

// TestParallelMatchesDFSOnToys: the work-stealing strategy reports the
// same distinct-violation set as sequential DFS on fully explored
// systems.
func TestParallelMatchesDFSOnToys(t *testing.T) {
	systems := map[string]System{
		"chain":     &chainSys{bound: 8, bad: 24},
		"multiViol": &multiViolSys{width: 12},
	}
	for name, sys := range systems {
		seq := Run(sys, Options{MaxDepth: 32})
		par := Run(sys, Options{MaxDepth: 32, Strategy: StrategySteal})
		if seq.Truncated || par.Truncated {
			t.Fatalf("%s: unexpected truncation", name)
		}
		if got, want := violationKeys(par), violationKeys(seq); !equalStrings(got, want) {
			t.Errorf("%s: steal violations %v != dfs %v", name, got, want)
		}
		if par.StatesExplored != seq.StatesExplored {
			t.Errorf("%s: steal explored %d, dfs %d", name, par.StatesExplored, seq.StatesExplored)
		}
	}
}

// badC3Diamond is diamondSys with a safety violation at chain state C3.
type badC3Diamond struct{ diamondSys }

func (d *badC3Diamond) Inspect(s State) []Violation {
	if s.(intState) == 203 {
		return []Violation{{Property: "bad-c3", Detail: "C3"}}
	}
	return nil
}

// TestParallelTrailReplays: under the work-stealing strategy a trail
// reconstructed from parent links must be a genuine path of the system
// — replaying its labels from the initial state reaches the reported
// violation — and the reported depth must be the trail's length. On the
// diamond, multi-worker runs can relax X's depth to 2 (via the B arm)
// while X's parent link still follows the long A arm; the depth must
// not be taken from the relaxed table. The run count makes a depth
// taken from the relaxed table show on at least one run.
func TestParallelTrailReplays(t *testing.T) {
	sys := &badC3Diamond{diamondSys{aLen: 8, cLen: 4}}
	for _, workers := range []int{2, 4} {
		for run := 0; run < 1000; run++ {
			res := Run(sys, Options{MaxDepth: 32, Strategy: StrategySteal, Workers: workers})
			if !res.HasViolation("bad-c3") {
				t.Fatalf("workers=%d run=%d: violation not found", workers, run)
			}
			for _, f := range res.Violations {
				if f.Depth != len(f.Trail) {
					t.Fatalf("workers=%d run=%d: depth=%d trail=%d", workers, run, f.Depth, len(f.Trail))
				}
				cur := sys.Initial()
				for i, step := range f.Trail {
					var next State
					for _, tr := range sys.Expand(cur) {
						if tr.Label == step.Label {
							next = tr.Next
							break
						}
					}
					if next == nil {
						t.Fatalf("workers=%d run=%d: trail step %d (%q) is not a transition of the current state",
							workers, run, i, step.Label)
					}
					cur = next
				}
				if len(sys.Inspect(cur)) == 0 {
					t.Fatalf("workers=%d run=%d: replayed trail for %s ends in a non-violating state",
						workers, run, f.Violation)
				}
			}
		}
	}
}

// TestParallelNoDedup: NoDedup explores every path under the
// work-stealing strategy too.
func TestParallelNoDedup(t *testing.T) {
	dedup := Run(&chainSys{bound: 10, bad: -1}, Options{MaxDepth: 16, Strategy: StrategySteal})
	nodedup := Run(&chainSys{bound: 10, bad: -1}, Options{MaxDepth: 16, Strategy: StrategySteal, NoDedup: true})
	if nodedup.StatesExplored <= dedup.StatesExplored {
		t.Errorf("NoDedup explored %d <= dedup %d", nodedup.StatesExplored, dedup.StatesExplored)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
