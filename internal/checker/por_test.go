package checker

import "testing"

// porToySys is a 4-state graph with a back edge: 0→{1,2}, 1→{0,3},
// 2→{3}. Its reducer selects transition 0 at every branching state —
// at state 0 that is the edge to 1 (fresh the first time), at state 1
// the back edge to 0 (always visited) — which exercises both proviso
// branches of engine.expand: accept-on-fresh and fall-back-when-all-
// selected-successors-are-visited.
type porToySys struct{ certified bool }

func (p *porToySys) Initial() State { return intState(0) }

func (p *porToySys) Expand(s State) []Transition {
	step := func(v int) Transition { return Transition{Label: "t", Next: intState(v)} }
	switch int(s.(intState)) {
	case 0:
		return []Transition{step(1), step(2)}
	case 1:
		return []Transition{step(0), step(3)}
	case 2:
		return []Transition{step(3)}
	}
	return nil
}

func (p *porToySys) Inspect(s State) []Violation {
	if int(s.(intState)) == 3 {
		return []Violation{{Property: "reach-3", Detail: "terminal"}}
	}
	return nil
}

func (p *porToySys) Reduce(s State, trs []Transition) []int {
	if len(trs) < 2 {
		return nil
	}
	return []int{0}
}

func (p *porToySys) CertifiesProgress() bool { return p.certified }

// TestPORProvisoFallback: an uncertified reducer whose subset leads
// only to visited states must be overridden by the visited-state
// proviso — the full expansion runs, the fallback is counted, and no
// reachable violation is lost.
func TestPORProvisoFallback(t *testing.T) {
	res := Run(&porToySys{}, Options{MaxDepth: 16, POR: true})
	if !res.HasViolation("reach-3") {
		t.Fatal("violation masked: the proviso fallback did not expand fully")
	}
	if res.PORFallbacks == 0 {
		t.Errorf("expected at least one proviso fallback, counters: choices=%d fallbacks=%d",
			res.PORChoicePoints, res.PORFallbacks)
	}
	// State 0's reduction is accepted (successor 1 is fresh), pruning
	// the direct edge to 2; state 2 then stays unexplored.
	if res.PORChoicePoints != 1 || res.StatesExplored != 3 {
		t.Errorf("choices=%d explored=%d, want 1 choice pruning state 2 (3 states explored)",
			res.PORChoicePoints, res.StatesExplored)
	}

	// Without POR the same system explores all 4 states.
	full := Run(&porToySys{}, Options{MaxDepth: 16})
	if full.StatesExplored != 4 || full.PORChoicePoints != 0 {
		t.Errorf("baseline explored=%d choices=%d, want 4 states and no POR activity",
			full.StatesExplored, full.PORChoicePoints)
	}
}

// TestPORCertifiedSkipsProviso: a progress-certified reducer is exempt
// from the visited-state probe — its subsets are taken as-is (state 1's
// back-edge subset is accepted, so state 3 via 1 is pruned and no
// fallback is counted).
func TestPORCertifiedSkipsProviso(t *testing.T) {
	res := Run(&porToySys{certified: true}, Options{MaxDepth: 16, POR: true})
	if res.PORFallbacks != 0 {
		t.Errorf("certified reducer hit %d proviso fallbacks, want 0", res.PORFallbacks)
	}
	if res.PORChoicePoints != 2 {
		t.Errorf("choices=%d, want both branching states reduced", res.PORChoicePoints)
	}
}

// TestPORAppliesToAllStrategies: the reduced graph is the same for
// DFS and work-stealing at every worker count — POR routes
// through the shared expansion path everywhere.
func TestPORAppliesToAllStrategies(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 16
		opts.POR = true
		res := Run(&porToySys{}, opts)
		if !res.HasViolation("reach-3") {
			t.Errorf("%s: violation masked under POR", name)
		}
		if res.StatesExplored != 3 {
			t.Errorf("%s: explored %d states, want the reduced graph's 3", name, res.StatesExplored)
		}
		if res.PORChoicePoints == 0 {
			t.Errorf("%s: reducer never engaged", name)
		}
	}
}
