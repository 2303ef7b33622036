// Gates for the persistent fault-injection environment model: (1) the
// MaxFaults=0 equivalence gate — a faults-enabled model with a zero
// budget must be observationally identical to a faults-off model,
// byte-identical state encodings and digests included, across every
// corpus group × reduction mode × strategy; (2) the incremental-digest
// walk oracle extended over fault content (offline Reported vectors,
// report epochs, the in-flight command buffer); (3) symmetry soundness
// under faults — an offline orbit member splits its orbit while
// transposition images still fold; (4) fault-only violation
// reachability — the climate workload reaches a physical violation and
// a silent-drop robustness violation that the fault-free model provably
// cannot; (5) counter-example replay — fault-induced trails replay as
// concrete executions of the raw model.
package iotsan_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// faultGroupModel builds a concurrent-design corpus-group model with
// symmetry tables and the incremental cache on, and the fault layer
// either absent or installed with a zero budget. The (apps, events)
// shapes reuse porCorpusConfigs: fully explorable, so the two variants
// compare complete searches.
func faultGroupModel(t *testing.T, group, napps, maxEvents int, faults bool) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("fault-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: maxEvents, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true, Incremental: true,
		Faults: faults, MaxFaults: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lockstepEncodeWalk walks the faults-off and MaxFaults=0 transition
// systems in lockstep and asserts byte-identical raw encodings,
// canonical encodings, and (raw + canonical) incremental digests at
// every reached state, plus identical transition lists. This is the
// strongest form of the zero-budget gate: the inert fault layer must
// not add a single byte anywhere in the state vector.
func lockstepEncodeWalk(t *testing.T, mOff, mZero *model.Model, seed int64) {
	t.Helper()
	sysOff, sysZero := mOff.System(), mZero.System()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	verify := func(a, b *model.State, at string) {
		if ea, eb := a.Encode(nil), b.Encode(nil); !bytes.Equal(ea, eb) {
			t.Fatalf("%s: raw encodings differ (off %d bytes, zero-budget %d bytes)", at, len(ea), len(eb))
		}
		if ca, cb := mOff.CanonicalEncode(a, nil), mZero.CanonicalEncode(b, nil); !bytes.Equal(ca, cb) {
			t.Fatalf("%s: canonical encodings differ", at)
		}
		for _, canonical := range []bool{false, true} {
			h1a, h2a := mOff.IncrementalDigest(a, canonical)
			h1b, h2b := mZero.IncrementalDigest(b, canonical)
			if h1a != h1b || h2a != h2b {
				t.Fatalf("%s: incremental digests differ [canonical=%v]: off (%#x,%#x) zero-budget (%#x,%#x)",
					at, canonical, h1a, h2a, h1b, h2b)
			}
		}
		checked++
	}
	for walk := 0; walk < 3; walk++ {
		ca, cb := sysOff.Initial(), sysZero.Initial()
		verify(ca.(*model.State), cb.(*model.State), fmt.Sprintf("walk %d initial", walk))
		for step := 0; step < 30; step++ {
			ta, tb := sysOff.Expand(ca), sysZero.Expand(cb)
			if len(ta) != len(tb) {
				t.Fatalf("walk %d step %d: transition counts diverge (off %d, zero-budget %d)",
					walk, step, len(ta), len(tb))
			}
			if len(ta) == 0 {
				break
			}
			for k := range ta {
				if ta[k].Label != tb[k].Label {
					t.Fatalf("walk %d step %d succ %d: labels diverge (%q vs %q)",
						walk, step, k, ta[k].Label, tb[k].Label)
				}
				if tb[k].Fault {
					t.Fatalf("walk %d step %d succ %d (%q): fault transition emitted at zero budget",
						walk, step, k, tb[k].Label)
				}
				verify(ta[k].Next.(*model.State), tb[k].Next.(*model.State),
					fmt.Sprintf("walk %d step %d succ %d (%s)", walk, step, k, ta[k].Label))
			}
			i := rng.Intn(len(ta))
			ca, cb = ta[i].Next, tb[i].Next
		}
	}
	if checked == 0 {
		t.Fatal("lockstep walk verified no states — the gate is vacuous")
	}
	t.Logf("verified %d lockstep states byte-identical", checked)
}

// TestFaultBudgetZeroEquivalence: on every corpus group, a model with
// the fault layer installed but a zero budget is indistinguishable from
// a faults-off model — byte-identical encodings and digests on lockstep
// walks, and identical violation sets, explored/matched/stored counts
// under every strategy × {plain, POR, symmetry, POR+symmetry}.
func TestFaultBudgetZeroEquivalence(t *testing.T) {
	strategies := []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal}
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			mOff := faultGroupModel(t, g, cfg.napps, cfg.events, false)
			mZero := faultGroupModel(t, g, cfg.napps, cfg.events, true)
			lockstepEncodeWalk(t, mOff, mZero, int64(g)*6007+11)
			for _, mode := range []struct {
				por, sym bool
			}{{false, false}, {true, false}, {false, true}, {true, true}} {
				for _, strat := range strategies {
					o := checker.Options{MaxDepth: 100, POR: mode.por, Symmetry: mode.sym,
						Strategy: strat, Workers: 2}
					off := checker.Run(mOff.System(), o)
					zero := checker.Run(mZero.System(), o)
					name := fmt.Sprintf("%v por=%v sym=%v", strat, mode.por, mode.sym)
					if off.Truncated || zero.Truncated {
						t.Fatalf("%s: truncated (off=%v zero=%v); the gate needs full exploration",
							name, off.Truncated, zero.Truncated)
					}
					if !equalStringSlices(violationSet(zero), violationSet(off)) {
						t.Errorf("%s: violation sets differ:\nzero-budget: %v\nfaults-off:  %v",
							name, violationSet(zero), violationSet(off))
					}
					if zero.StatesExplored != off.StatesExplored || zero.StatesMatched != off.StatesMatched ||
						zero.StatesStored != off.StatesStored {
						t.Errorf("%s: state space diverges: zero-budget explored=%d matched=%d stored=%d / faults-off explored=%d matched=%d stored=%d",
							name, zero.StatesExplored, zero.StatesMatched, zero.StatesStored,
							off.StatesExplored, off.StatesMatched, off.StatesStored)
					}
					if zero.FaultTransitionsExplored != 0 {
						t.Errorf("%s: %d fault transitions explored at zero budget",
							name, zero.FaultTransitionsExplored)
					}
				}
			}
		})
	}
}

// TestFaultDigestWalkEquivalence: the per-state incremental-digest
// oracle on the fault workload with a live budget, so reached states
// carry offline devices (stale Reported vectors, report epochs) and
// non-empty in-flight buffers — every fault mutation site must mark the
// blocks it touches.
func TestFaultDigestWalkEquivalence(t *testing.T) {
	m, _, _, err := experiments.FaultWorkload(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	walkDigests(t, m, 424243)
}

// faultSymmetryModel builds the interchangeable-device system with the
// fault layer live. extraPresence > 0 appends that many additional
// presence sensors to the fleet (and every "people" binding), growing
// the presence orbit; extraPresence < 0 removes |extraPresence| of the
// three stock members from *both* orbits, shrinking them to pairs so
// the flat-canonical digest path (largest orbit ≤ 2) is exercised
// alongside the cached-hash fold.
func faultSymmetryModel(t *testing.T, name string, extraPresence int) *model.Model {
	t.Helper()
	sys, apps, err := experiments.SymmetrySystem(name)
	if err != nil {
		t.Fatal(err)
	}
	if extraPresence < 0 {
		drop := map[string]bool{}
		for _, id := range []string{"presC", "contactC", "presB", "contactB"}[:(-extraPresence)*2] {
			drop[id] = true
		}
		kept := sys.Devices[:0]
		for _, d := range sys.Devices {
			if !drop[d.ID] {
				kept = append(kept, d)
			}
		}
		sys.Devices = kept
		for ai := range sys.Apps {
			for in, b := range sys.Apps[ai].Bindings {
				ids := b.DeviceIDs[:0]
				for _, id := range b.DeviceIDs {
					if !drop[id] {
						ids = append(ids, id)
					}
				}
				b.DeviceIDs = ids
				sys.Apps[ai].Bindings[in] = b
			}
		}
	}
	var extraIDs []string
	for i := 0; i < extraPresence; i++ {
		id := fmt.Sprintf("presX%d", i)
		extraIDs = append(extraIDs, id)
		sys.Devices = append(sys.Devices, config.Device{
			ID: id, Label: fmt.Sprintf("Presence X%d", i), Model: "Presence Sensor"})
	}
	for ai := range sys.Apps {
		if b, ok := sys.Apps[ai].Bindings["people"]; ok {
			b.DeviceIDs = append(append([]string{}, b.DeviceIDs...), extraIDs...)
			sys.Apps[ai].Bindings["people"] = b
		}
	}
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 1, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true, Incremental: true,
		Faults: true, MaxFaults: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFaultOfflineOrbitSplit: taking one orbit member offline must
// split it from its still-online peers (the canonical encoding may not
// fold an offline sensor with an online one), while isomorphic outage
// states — different members of one orbit offline — must still fold,
// and the device-permutation image of an outage state must canonicalize
// identically to the original.
func TestFaultOfflineOrbitSplit(t *testing.T) {
	m := faultSymmetryModel(t, "fault-orbit", 0)
	if st := m.SymmetryStats(); st.Orbits == 0 {
		t.Fatal("no orbits — the split check is vacuous")
	}
	sys := m.System()
	init := sys.Initial().(*model.State)
	offline := map[string]*model.State{}
	for _, tr := range sys.Expand(init) {
		if name, ok := strings.CutSuffix(tr.Label, " goes offline"); ok {
			offline[strings.TrimPrefix(name, "fault: ")] = tr.Next.(*model.State)
		}
	}
	offA, offB := offline["Presence A"], offline["Presence B"]
	if offA == nil || offB == nil {
		t.Fatalf("outage transitions missing (got %d offline successors)", len(offline))
	}
	encInit := m.CanonicalEncode(init, nil)
	encA := m.CanonicalEncode(offA, nil)
	encB := m.CanonicalEncode(offB, nil)
	if !bytes.Equal(encA, encB) {
		t.Error("isomorphic outage states (A offline vs B offline) fail to fold canonically")
	}
	if bytes.Equal(encA, encInit) {
		t.Error("outage state canonicalizes like the fully-online state — the orbit failed to split")
	}

	// Transposition image: swapping the offline member with an online
	// peer is a group element, so the image must fold with the original.
	idx := map[string]int{}
	for d, di := range m.Devices {
		idx[di.Label] = d
	}
	perm := make([]int, len(m.Devices))
	for i := range perm {
		perm[i] = i
	}
	a, b := idx["Presence A"], idx["Presence B"]
	perm[a], perm[b] = b, a
	img, ok := m.ApplyDevicePermutation(offA, perm)
	if !ok {
		t.Fatal("presence transposition rejected — not a group element?")
	}
	if !bytes.Equal(m.CanonicalEncode(img, nil), encA) {
		t.Error("permutation image of an outage state canonicalizes differently from the original")
	}
}

// TestFaultCanonicalFoldLargeOrbit: with five interchangeable presence
// sensors the largest orbit is far above the flat-canonical threshold,
// so the incremental canonical digest takes the cached-hash fold path —
// the walk oracle then checks that path over fault content too.
func TestFaultCanonicalFoldLargeOrbit(t *testing.T) {
	m := faultSymmetryModel(t, "fault-orbit-large", 2)
	if st := m.SymmetryStats(); st.Largest < 5 {
		t.Fatalf("largest orbit %d — expected the extended presence fleet to form one of ≥5", st.Largest)
	}
	walkDigests(t, m, 777901)
}

// TestFaultFlatCanonPairOrbit: with both orbits shrunk to two devices
// the largest orbit is within flatCanonMaxOrbit, so the incremental
// canonical digest routes through the flat encoder (content-keyed
// profiles, no block refresh). The walk oracle checks that path over
// fault content, and the offline fold/split invariants must hold on it
// exactly as on the cached-hash fold path.
func TestFaultFlatCanonPairOrbit(t *testing.T) {
	m := faultSymmetryModel(t, "fault-orbit-pair", -1)
	if st := m.SymmetryStats(); st.Largest != 2 {
		t.Fatalf("largest orbit %d — expected the shrunk fleet to form pair orbits", st.Largest)
	}
	walkDigests(t, m, 515253)

	sys := m.System()
	init := sys.Initial().(*model.State)
	offline := map[string]*model.State{}
	for _, tr := range sys.Expand(init) {
		if name, ok := strings.CutSuffix(tr.Label, " goes offline"); ok {
			offline[strings.TrimPrefix(name, "fault: ")] = tr.Next.(*model.State)
		}
	}
	offA, offB := offline["Presence A"], offline["Presence B"]
	if offA == nil || offB == nil {
		t.Fatalf("outage transitions missing (got %d offline successors)", len(offline))
	}
	if !bytes.Equal(m.CanonicalEncode(offA, nil), m.CanonicalEncode(offB, nil)) {
		t.Error("isomorphic pair-orbit outage states fail to fold canonically")
	}
	if bytes.Equal(m.CanonicalEncode(offA, nil), m.CanonicalEncode(init, nil)) {
		t.Error("outage state canonicalizes like the fully-online state — the pair orbit failed to split")
	}
}

// TestFaultOnlyViolationReachability: the climate workload's
// mutual-exclusion invariant (heater and AC never both on) holds in the
// fault-free model — both commands issue within one handler run, off
// before on — and is violated once an outage can hold the off-command
// in flight. With budget for a drop, the silently dropped command of an
// unnotified app raises the robustness property, while the app that
// pushes a notification alongside its command never does.
func TestFaultOnlyViolationReachability(t *testing.T) {
	const exclusion = "therm.ac-and-heater-both-on"
	mOff, coptsOff, _, err := experiments.FaultWorkload(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := checker.Run(mOff.System(), coptsOff)
	if off.Truncated {
		t.Fatal("fault-free run truncated; reachability comparison needs full exploration")
	}
	if off.HasViolation(exclusion) {
		t.Fatalf("%s reachable without faults — the workload does not isolate the fault semantics", exclusion)
	}
	if off.HasViolation(model.PropRobustness) {
		t.Fatalf("%s reachable without faults", model.PropRobustness)
	}

	mOn, coptsOn, _, err := experiments.FaultWorkload(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	on := checker.Run(mOn.System(), coptsOn)
	if on.Truncated {
		t.Fatal("fault run truncated; reachability comparison needs full exploration")
	}
	if !on.HasViolation(exclusion) {
		t.Errorf("%s not reached with MaxFaults=2 — delayed delivery failed to interleave past the opposing command", exclusion)
	}
	if !on.HasViolation(model.PropRobustness) {
		t.Errorf("%s not reached with MaxFaults=2 — no silent drop was flagged", model.PropRobustness)
	}
	for _, f := range on.Violations {
		if f.Property == model.PropRobustness && strings.Contains(f.Detail, "Heater Push Guard") {
			t.Errorf("notified app flagged as a silent drop: %s", f.Detail)
		}
	}
	if on.FaultTransitionsExplored == 0 {
		t.Error("no fault transitions counted in the result")
	}
	t.Logf("fault run: %d states, %d fault transitions, %d violations",
		on.StatesExplored, on.FaultTransitionsExplored, len(on.Violations))
}

// TestFaultTrailReplaysOnModel: every trail reported on the fault
// workload — including trails that traverse outage, delivery, and drop
// transitions — replays from the initial state through genuine
// transitions of the concrete model to its violation.
func TestFaultTrailReplaysOnModel(t *testing.T) {
	m, copts, _, err := experiments.FaultWorkload(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := m.System()
	o := copts
	o.Strategy = checker.StrategySteal
	o.Workers = 4
	res := checker.Run(sys, o)
	if len(res.Violations) == 0 {
		t.Fatal("no violations reported — the replay check is vacuous")
	}
	faultTrails := 0
	for _, f := range res.Violations {
		cur := sys.Initial()
		violated := false
		traversesFault := false
	steps:
		for i, step := range f.Trail {
			if strings.HasPrefix(step.Label, "fault: ") {
				traversesFault = true
			}
			for _, tr := range sys.Expand(cur) {
				if tr.Label != step.Label {
					continue
				}
				for _, v := range tr.Violations {
					if v.Property == f.Property && v.Detail == f.Detail {
						violated = true
					}
				}
				cur = tr.Next
				continue steps
			}
			t.Fatalf("%s: trail step %d (%q) is not a transition of the replayed state", f.Violation, i, step.Label)
		}
		for _, v := range sys.Inspect(cur) {
			if v.Property == f.Property && v.Detail == f.Detail {
				violated = true
			}
		}
		if !violated {
			t.Errorf("%s: replayed trail does not exhibit the violation", f.Violation)
		}
		if traversesFault {
			faultTrails++
		}
	}
	if faultTrails == 0 {
		t.Fatal("no reported trail traverses a fault transition — the fault replay check is vacuous")
	}
	t.Logf("replayed %d trails (%d traversing fault transitions)", len(res.Violations), faultTrails)
}
