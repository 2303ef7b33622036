package checker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// gridState is a cell of inspectGrid.
type gridState struct{ x, y int }

func (s gridState) Encode(buf []byte) []byte { return append(buf, byte(s.x), byte(s.y)) }

// inspectGrid is an n×n grid walked right (R) and up (U) from (0,0):
// every interior cell is a diamond join reached along two edges. The
// join (1,1) violates the "join" invariant, and the R edge (0,1)→(1,1)
// — the join's second arrival in depth-first order — raises the
// transition violation "edge" when edge is set. Inspect counts its calls
// overall and per cell.
type inspectGrid struct {
	n     int
	edge  bool
	calls atomic.Int64
	mu    sync.Mutex
	per   map[gridState]int
}

func newInspectGrid(n int, edge bool) *inspectGrid {
	return &inspectGrid{n: n, edge: edge, per: map[gridState]int{}}
}

func (g *inspectGrid) Initial() State { return gridState{} }

func (g *inspectGrid) Expand(s State) []Transition {
	st := s.(gridState)
	var out []Transition
	if st.x < g.n-1 {
		nx := gridState{st.x + 1, st.y}
		tr := Transition{Label: fmt.Sprintf("R->(%d,%d)", nx.x, nx.y), Next: nx}
		if g.edge && st == (gridState{0, 1}) {
			tr.Violations = []Violation{{Property: "edge", Detail: "(0,1)->(1,1)"}}
		}
		out = append(out, tr)
	}
	if st.y < g.n-1 {
		ny := gridState{st.x, st.y + 1}
		out = append(out, Transition{Label: fmt.Sprintf("U->(%d,%d)", ny.x, ny.y), Next: ny})
	}
	return out
}

func (g *inspectGrid) Inspect(s State) []Violation {
	st := s.(gridState)
	g.calls.Add(1)
	g.mu.Lock()
	g.per[st]++
	g.mu.Unlock()
	if st == (gridState{1, 1}) {
		return []Violation{{Property: "join", Detail: "(1,1)"}}
	}
	return nil
}

func countProperty(res *Result, prop string) int {
	n := 0
	for _, f := range res.Violations {
		if f.Property == prop {
			n++
		}
	}
	return n
}

// TestInspectOncePerStoredState: the engine checks state invariants once
// per newly stored state (plus the initial state), never on a duplicate
// arrival, for every strategy and store; transition violations are
// still recorded on every arrival.
func TestInspectOncePerStoredState(t *testing.T) {
	const n = 4
	cases := map[string]Options{
		"dfs":            {Strategy: StrategyDFS},
		"steal-1":        {Strategy: StrategySteal, Workers: 1},
		"steal-2":        {Strategy: StrategySteal, Workers: 2},
		"parallel":       {Strategy: StrategyParallel},
		"dfs-nodedup":    {Strategy: StrategyDFS, NoDedup: true},
		"steal-nodedup":  {Strategy: StrategySteal, Workers: 2, NoDedup: true},
		"dfs-bitstate":   {Strategy: StrategyDFS, Store: Bitstate},
		"steal-bitstate": {Strategy: StrategySteal, Workers: 2, Store: Bitstate},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			opts.MaxDepth = 2 * n
			g := newInspectGrid(n, true)
			res := Run(g, opts)
			if res.Truncated {
				t.Fatalf("unexpected truncation")
			}
			calls := int(g.calls.Load())
			if opts.NoDedup {
				if calls != res.StatesExplored {
					t.Errorf("Inspect calls %d, want StatesExplored %d", calls, res.StatesExplored)
				}
			} else if calls != res.StatesStored {
				t.Errorf("Inspect calls %d, want StatesStored %d", calls, res.StatesStored)
			}
			if opts.Store == Exhaustive && !opts.NoDedup {
				if res.StatesStored != n*n {
					t.Errorf("stored %d states, want %d", res.StatesStored, n*n)
				}
				for st, k := range g.per {
					if k != 1 {
						t.Errorf("state %v inspected %d times, want once", st, k)
					}
				}
			}
			if got := countProperty(res, "join"); got != 1 {
				t.Errorf("join violation recorded %d times, want once", got)
			}
			if got := countProperty(res, "edge"); got != 1 {
				t.Errorf("edge transition violation recorded %d times, want once", got)
			}
		})
	}
}

// TestInspectDFSTrailIsFirstArrival: the DFS trail of a state violation
// is the path that first stored the state, unchanged from checking
// invariants on every arrival.
func TestInspectDFSTrailIsFirstArrival(t *testing.T) {
	res := Run(newInspectGrid(4, true), Options{MaxDepth: 8})
	want := []string{"R->(1,0)", "U->(1,1)"}
	for _, f := range res.Violations {
		if f.Property != "join" {
			continue
		}
		var got []string
		for _, st := range f.Trail {
			got = append(got, st.Label)
		}
		if !equalStrings(got, want) || f.Depth != len(want) {
			t.Errorf("join trail %v at depth %d, want %v", got, f.Depth, want)
		}
		return
	}
	t.Fatal("join violation not found")
}

// TestInspectMaxViolationsStopOnStoredState: a MaxViolations stop raised
// by a freshly stored state's invariants counts that state as explored,
// so the stored and explored counts agree.
func TestInspectMaxViolationsStopOnStoredState(t *testing.T) {
	for name, opts := range map[string]Options{
		"dfs":      {Strategy: StrategyDFS},
		"steal-1":  {Strategy: StrategySteal, Workers: 1},
		"steal-2":  {Strategy: StrategySteal, Workers: 2},
		"parallel": {Strategy: StrategyParallel},
	} {
		opts.MaxDepth = 8
		opts.MaxViolations = 1
		// Without the edge violation the only violation is the join
		// invariant, so the stop is raised by a freshly stored state.
		g := newInspectGrid(4, false)
		res := Run(g, opts)
		if !res.Truncated || len(res.Violations) != 1 {
			t.Errorf("%s: truncated=%v with %d violations, want a stop after one", name, res.Truncated, len(res.Violations))
			continue
		}
		if res.StatesStored != res.StatesExplored {
			t.Errorf("%s: stored %d != explored %d after a MaxViolations stop", name, res.StatesStored, res.StatesExplored)
		}
		if calls := int(g.calls.Load()); calls != res.StatesStored {
			t.Errorf("%s: Inspect calls %d, want StatesStored %d", name, calls, res.StatesStored)
		}
	}
}
