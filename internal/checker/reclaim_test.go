package checker

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file validate the epoch-based reclamation layer
// (reclaim.go) with a *poisoning* recycler: every state handed to
// Recycle is marked dead before it returns to the free list, and every
// Expand asserts the state it was given is alive. A state recycled
// while another worker could still expand it is therefore caught two
// ways — deterministically by the dead-flag assertion (counted in
// poisoned), and under -race by the unsynchronised dead-flag write
// racing the reader. Equivalence against a sequential DFS reference
// then confirms reclamation loses no work and fabricates none.

// poisonState is a heap-allocated grid cell; dead is the poison flag.
type poisonState struct {
	x, y int
	dead bool
}

func (s *poisonState) Encode(buf []byte) []byte {
	return append(buf, byte(s.x), byte(s.x>>8), byte(s.y), byte(s.y>>8))
}

// poisonGrid is a w×h diamond lattice (moves: right, down) — the
// densest duplicate structure per state, so most children die on the
// visited-store match and flow through the recycler; the fan at each
// anti-diagonal gives thieves real work to steal.
type poisonGrid struct {
	w, h int

	mu     sync.Mutex
	free   []*poisonState
	trFree [][]Transition

	recycled atomic.Int64 // states handed back via Recycle
	poisoned atomic.Int64 // uses of a dead state / double recycles
}

func (p *poisonGrid) get(x, y int) *poisonState {
	p.mu.Lock()
	var s *poisonState
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		return &poisonState{x: x, y: y}
	}
	s.x, s.y, s.dead = x, y, false
	return s
}

func (p *poisonGrid) getTrs() []Transition {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.trFree); n > 0 {
		trs := p.trFree[n-1]
		p.trFree = p.trFree[:n-1]
		return trs[:0]
	}
	return nil
}

func (p *poisonGrid) Initial() State { return p.get(0, 0) }

func (p *poisonGrid) Expand(st State) []Transition {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	out := p.getTrs()
	if s.x < p.w {
		out = append(out, Transition{Label: "right", Next: p.get(s.x+1, s.y)})
	}
	if s.y < p.h {
		out = append(out, Transition{Label: "down", Next: p.get(s.x, s.y+1)})
	}
	return out
}

func (p *poisonGrid) Inspect(st State) []Violation {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	if s.x == p.w && s.y == p.h {
		return []Violation{{Property: "corner", Detail: "reached far corner"}}
	}
	return nil
}

func (p *poisonGrid) Recycle(st State) {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return
	}
	s.dead = true
	s.x, s.y = -1, -1
	p.recycled.Add(1)
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

func (p *poisonGrid) RecycleTransitions(trs []Transition) {
	p.mu.Lock()
	p.trFree = append(p.trFree, trs)
	p.mu.Unlock()
}

// TestEpochReclaimPoison: the work-stealing strategy, recycling on, must
// explore the exact DFS state space with zero dead-state uses — the
// epoch grace period has to keep every stolen-but-unexpanded state
// alive past its parent's retirement. Run repeatedly (and under -race
// in CI) because the hazardous interleavings are probabilistic.
func TestEpochReclaimPoison(t *testing.T) {
	mk := func() *poisonGrid { return &poisonGrid{w: 48, h: 48} }
	opts := Options{MaxDepth: 200}

	ref := mk()
	seq := Run(ref, opts)
	if seq.Truncated || len(seq.Violations) != 1 {
		t.Fatalf("reference run: truncated=%v violations=%d", seq.Truncated, len(seq.Violations))
	}
	if ref.poisoned.Load() != 0 {
		t.Fatalf("dfs reference used %d dead states", ref.poisoned.Load())
	}

	for run := 0; run < 4; run++ {
		sys := mk()
		o := opts
		o.Strategy = StrategySteal
		o.Workers = 8
		res := Run(sys, o)
		if n := sys.poisoned.Load(); n != 0 {
			t.Fatalf("run %d: %d dead-state uses — reclamation freed a live state", run, n)
		}
		if sys.recycled.Load() == 0 {
			t.Errorf("run %d: recycler never invoked — the hot path under test did not run", run)
		}
		if res.StatesExplored != seq.StatesExplored || res.StatesMatched != seq.StatesMatched ||
			res.StatesStored != seq.StatesStored {
			t.Errorf("run %d: explored=%d matched=%d stored=%d, dfs %d/%d/%d",
				run, res.StatesExplored, res.StatesMatched, res.StatesStored,
				seq.StatesExplored, seq.StatesMatched, seq.StatesStored)
		}
		if len(res.Violations) != len(seq.Violations) {
			t.Errorf("run %d: %d violations, want %d", run, len(res.Violations), len(seq.Violations))
		}
	}

	// Escape hatch: with reclamation off the steal strategy must
	// never call Recycle (DFS keeps its free-lists regardless).
	sys := mk()
	res := Run(sys, Options{MaxDepth: 200, Strategy: StrategySteal, Workers: 8, NoEpochReclaim: true})
	if sys.recycled.Load() != 0 {
		t.Errorf("NoEpochReclaim: steal still recycled %d states", sys.recycled.Load())
	}
	if res.StatesExplored != seq.StatesExplored {
		t.Errorf("NoEpochReclaim: explored=%d, dfs %d", res.StatesExplored, seq.StatesExplored)
	}
}

// poisonPulse is pulseSys (retire_test.go) with heap states and the
// poisoning recycler: narrow chain phases retire grown workers —
// taking their reclamation slots offline and handing unswept limbo to
// any replacement — and wide fan phases respawn them onto the same
// slot. Epoch advancement must keep working across the churn (an
// offline slot must not stall the global epoch) and handed-over limbo
// must still drain.
type poisonPulse struct {
	cycles, chain, fan int

	mu   sync.Mutex
	free []*pulsePState

	recycled atomic.Int64
	poisoned atomic.Int64
}

type pulsePState struct {
	c, phase, i int
	dead        bool
}

func (s *pulsePState) Encode(buf []byte) []byte {
	return append(buf, byte(s.c), byte(s.phase), byte(s.i), byte(s.i>>8))
}

func (p *poisonPulse) get(c, phase, i int) *pulsePState {
	p.mu.Lock()
	var s *pulsePState
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		return &pulsePState{c: c, phase: phase, i: i}
	}
	s.c, s.phase, s.i, s.dead = c, phase, i, false
	return s
}

func (p *poisonPulse) Initial() State { return p.get(0, 0, 0) }

func (p *poisonPulse) Expand(st State) []Transition {
	s := st.(*pulsePState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	if s.c >= p.cycles {
		return nil
	}
	if s.phase == 0 {
		if s.i < p.chain {
			return []Transition{{Label: "step", Next: p.get(s.c, 0, s.i+1)}}
		}
		out := make([]Transition, p.fan)
		for j := 0; j < p.fan; j++ {
			out[j] = Transition{Label: "fan", Next: p.get(s.c, 1, j)}
		}
		return out
	}
	return []Transition{{Label: "join", Next: p.get(s.c+1, 0, 0)}}
}

func (p *poisonPulse) Inspect(st State) []Violation {
	s := st.(*pulsePState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	if s.c == p.cycles {
		return []Violation{{Property: "end-reached", Detail: "final cycle"}}
	}
	return nil
}

func (p *poisonPulse) Recycle(st State) {
	s := st.(*pulsePState)
	if s.dead {
		p.poisoned.Add(1)
		return
	}
	s.dead = true
	s.c, s.phase, s.i = -1, -1, -1
	p.recycled.Add(1)
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// TestEpochReclaimRetireRespawnChurn hammers epoch advancement against
// worker retire/respawn under a two-token budget (every grown worker
// funnels through the same token and usually the same reclamation
// slot). With -race this additionally validates the
// offline-before-republish ordering in strategy_steal.go: a retiring
// worker must zero its reclamation slot before the freed deque index
// becomes claimable, or the replacement's pin would be wiped.
func TestEpochReclaimRetireRespawnChurn(t *testing.T) {
	mk := func() *poisonPulse { return &poisonPulse{cycles: 6, chain: 100, fan: 32} }
	ref := mk()
	seq := Run(ref, Options{MaxDepth: 10000})
	if seq.Truncated {
		t.Fatal("reference run truncated")
	}

	for run := 0; run < 5; run++ {
		sys := mk()
		b := NewWorkerBudget(2)
		b.Acquire()
		res := Run(sys, Options{MaxDepth: 10000, Strategy: StrategySteal, Workers: 4, Budget: b})
		b.Release()
		if !b.TryAcquire() || !b.TryAcquire() {
			t.Fatalf("run %d: search leaked budget tokens", run)
		}
		if n := sys.poisoned.Load(); n != 0 {
			t.Fatalf("run %d: %d dead-state uses across retire/respawn churn", run, n)
		}
		if sys.recycled.Load() == 0 {
			t.Errorf("run %d: recycler never invoked", run)
		}
		if res.StatesExplored != seq.StatesExplored || res.StatesMatched != seq.StatesMatched ||
			res.StatesStored != seq.StatesStored {
			t.Errorf("run %d: explored=%d matched=%d stored=%d, dfs %d/%d/%d",
				run, res.StatesExplored, res.StatesMatched, res.StatesStored,
				seq.StatesExplored, seq.StatesMatched, seq.StatesStored)
		}
		if len(res.Violations) != len(seq.Violations) {
			t.Errorf("run %d: %d violations, want %d", run, len(res.Violations), len(seq.Violations))
		}
	}
}
