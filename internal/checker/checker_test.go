package checker

import (
	"fmt"
	"testing"
	"testing/quick"
)

// chainState is a toy system: a counter that can be incremented or
// doubled up to a bound; states with value == bad violate. depth is
// part of the state vector because Expand's behavior depends on it —
// omitting it would alias states that expand differently, and the two
// strategies would then legitimately explore different state counts.
type chainState struct{ v, depth int }

func (s *chainState) Encode(buf []byte) []byte {
	return append(buf, byte(s.v), byte(s.v>>8), byte(s.depth))
}

type chainSys struct {
	bound int
	bad   int
}

func (c *chainSys) Initial() State { return &chainState{v: 1} }

func (c *chainSys) Expand(s State) []Transition {
	st := s.(*chainState)
	if st.depth >= c.bound {
		return nil
	}
	mk := func(nv int, label string) Transition {
		return Transition{Label: label, Next: &chainState{v: nv, depth: st.depth + 1}}
	}
	return []Transition{
		mk(st.v+1, fmt.Sprintf("inc->%d", st.v+1)),
		mk(st.v*2, fmt.Sprintf("dbl->%d", st.v*2)),
	}
}

func (c *chainSys) Inspect(s State) []Violation {
	if s.(*chainState).v == c.bad {
		return []Violation{{Property: "bad-value", Detail: fmt.Sprintf("reached %d", c.bad)}}
	}
	return nil
}

func TestFindsViolationWithTrail(t *testing.T) {
	res := Run(&chainSys{bound: 6, bad: 12}, Options{MaxDepth: 10})
	if !res.HasViolation("bad-value") {
		t.Fatalf("violation not found; explored=%d", res.StatesExplored)
	}
	f := res.Violations[0]
	if len(f.Trail) == 0 {
		t.Error("no trail")
	}
	if f.Depth != len(f.Trail) {
		t.Errorf("depth=%d trail=%d", f.Depth, len(f.Trail))
	}
}

func TestDedupPrunesRevisits(t *testing.T) {
	res := Run(&chainSys{bound: 10, bad: -1}, Options{MaxDepth: 16})
	if res.StatesMatched == 0 {
		t.Error("expected matched states (2*2=4 is reachable two ways)")
	}
	nodedup := Run(&chainSys{bound: 10, bad: -1}, Options{MaxDepth: 16, NoDedup: true})
	if nodedup.StatesExplored <= res.StatesExplored {
		t.Errorf("NoDedup explored %d <= dedup %d", nodedup.StatesExplored, res.StatesExplored)
	}
}

func TestBitstateFindsSameViolations(t *testing.T) {
	ex := Run(&chainSys{bound: 8, bad: 24}, Options{MaxDepth: 12})
	bs := Run(&chainSys{bound: 8, bad: 24}, Options{MaxDepth: 12, Store: Bitstate, BitstateBits: 16})
	if ex.HasViolation("bad-value") != bs.HasViolation("bad-value") {
		t.Errorf("exhaustive=%v bitstate=%v", ex.HasViolation("bad-value"), bs.HasViolation("bad-value"))
	}
}

func TestLimitsTruncate(t *testing.T) {
	res := Run(&chainSys{bound: 30, bad: -1}, Options{MaxDepth: 64, MaxStates: 50})
	if !res.Truncated {
		t.Error("expected truncation at MaxStates")
	}
	res = Run(&chainSys{bound: 30, bad: -1}, Options{MaxDepth: 3})
	if res.MaxDepthReached > 3 {
		t.Errorf("depth %d exceeds bound", res.MaxDepthReached)
	}
}

func TestMaxViolationsStopsEarly(t *testing.T) {
	res := Run(&chainSys{bound: 10, bad: 4}, Options{MaxDepth: 16, MaxViolations: 1})
	if len(res.Violations) != 1 {
		t.Errorf("violations = %d, want 1", len(res.Violations))
	}
}

// TestBitstoreNeverFalseNegativeOnFirstInsert: a bitstate store never
// claims an unseen state was seen before any insertions collide
// (property: first insert of any hash returns false).
func TestBitstoreNeverFalseNegativeOnFirstInsert(t *testing.T) {
	f := func(h1, h2 uint64) bool {
		s := newBitStore(16, 3)
		d := digest{h1, h2}
		return !s.seen(d) && s.seen(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashStoreExact: the exhaustive stores are exact over hashes.
func TestHashStoreExact(t *testing.T) {
	for name, mk := range map[string]func() store{
		"hashStore":        func() store { return &hashStore{m: map[uint64]struct{}{}} },
		"shardedHashStore": func() store { return newShardedHashStore() },
	} {
		f := func(hs []uint64) bool {
			s := mk()
			seen := map[uint64]bool{}
			for _, h := range hs {
				if s.seen(digest{h1: h, h2: h * 3}) != seen[h] {
					return false
				}
				seen[h] = true
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFormatTrail(t *testing.T) {
	out := FormatTrail(Found{
		Violation: Violation{Property: "p", Detail: "d"},
		Trail: []TrailStep{
			{Label: "ev1", Steps: []string{"a", "b"}},
			{Label: "ev2"},
		},
	})
	for _, want := range []string{"violated: p (d)", "[ev1]", "a", "[ev2]"} {
		if !contains(out, want) {
			t.Errorf("trail missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestParseStrategy: the CLI names map to the two strategies, and the
// removed level-synchronous names are rejected with an error naming
// the valid choices.
func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    StrategyKind
		wantErr bool
	}{
		{"", StrategyDFS, false},
		{"dfs", StrategyDFS, false},
		{"sequential", StrategyDFS, false},
		{"steal", StrategySteal, false},
		{"ws", StrategySteal, false},
		{"work-stealing", StrategySteal, false},
		{"parallel", 0, true},
		{"bfs", 0, true},
		{"frontier", 0, true},
		{"DFS", 0, true},
	} {
		got, err := ParseStrategy(tc.name)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseStrategy(%q) = %v, want an error", tc.name, got)
				continue
			}
			for _, valid := range []string{"dfs", "steal"} {
				if !contains(err.Error(), valid) {
					t.Errorf("ParseStrategy(%q) error %q does not name %q", tc.name, err, valid)
				}
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, k := range []StrategyKind{StrategyDFS, StrategySteal} {
		if back, err := ParseStrategy(k.String()); err != nil || back != k {
			t.Errorf("ParseStrategy(%v.String()) = %v, %v", k, back, err)
		}
	}
}
