package main

import (
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// firstInput returns a workload's first input under the default seed.
func firstInput(t *testing.T, w workload) input {
	t.Helper()
	ins, err := w.inputs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ins[0]
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads() {
		encode := func(seed int64) string {
			ins, err := w.inputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			var systems []any
			for _, in := range ins {
				systems = append(systems, in.name, in.sys)
			}
			data, err := json.Marshal(systems)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		if encode(7) != encode(7) {
			t.Errorf("%s: seed 7 generated two different input sets", w.name)
		}
		if encode(7) == encode(8) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// TestWrappedRunMatchesBare checks that searching through timedSystem is
// the bare search: a forward the wrapper dropped would change the counts
// (without Reducer, POR would be off; without IncrementalDigester, the
// digests would differ).
func TestWrappedRunMatchesBare(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			in := firstInput(t, w)
			opts := withDefaults(w.opts)
			apps := map[string]*ir.App{}
			for name, src := range in.sources {
				app, err := smartapp.Translate(src)
				if err != nil {
					t.Fatal(err)
				}
				apps[name] = app
			}
			var handlers []smartapp.HandlerInfo
			var handlerApp []string
			for _, inst := range in.sys.Apps {
				for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
					handlerApp = append(handlerApp, inst.App)
					handlers = append(handlers, hi)
				}
			}
			tr := newTracer()
			for _, g := range relatedAppGroups(in.sys, handlers, handlerApp, opts.NoDepGraph) {
				m, copts, err := tr.buildGroup(subSystem(in.sys, g), apps, opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				bare := checker.Run(m.System(), copts)
				var c modelCounters
				sys, err := newTimedSystem(m.System(), m.SymmetryStats().Largest, &c)
				if err != nil {
					t.Fatal(err)
				}
				wrapped := checker.Run(sys, copts)
				if got, want := runShape(wrapped), runShape(bare); !slices.Equal(got, want) {
					t.Errorf("related set %v: wrapped run %v, bare run %v", g, got, want)
				}
				if got, want := violationKeys(wrapped), violationKeys(bare); !slices.Equal(got, want) {
					t.Errorf("related set %v: wrapped run found %d violations, bare run %d", g, len(got), len(want))
				}
				if c.expandCalls.Load() == 0 || c.digestCalls.Load() == 0 {
					t.Errorf("related set %v: the wrapper saw no Expand or digest calls", g)
				}
				if opts.POR && c.reduceCalls.Load() == 0 {
					t.Errorf("related set %v: POR is on but the wrapper saw no Reduce calls", g)
				}
			}
		})
	}
}

// runShape lists a Result's counters.
func runShape(r *checker.Result) []int {
	truncated := 0
	if r.Truncated {
		truncated = 1
	}
	return []int{r.StatesExplored, r.StatesMatched, r.StatesStored, r.MaxDepthReached, truncated,
		r.PORChoicePoints, r.PORPrunedTransitions, r.PORFallbacks, r.FaultTransitionsExplored}
}

func violationKeys(r *checker.Result) []string {
	var keys []string
	for _, f := range r.Violations {
		keys = append(keys, f.Property+": "+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

// TestReplayMatchesAnalyze is the replay equivalence guard on each
// workload's first input: the traced stage-by-stage replay must reach
// the related sets, per-set state counts and violations of Analyze.
func TestReplayMatchesAnalyze(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			in := firstInput(t, w)
			rep, err := analyze(in, w.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := newTracer().replay(in, w.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := reportShape(in.name, rep); !got.equal(want) {
				t.Errorf("replay: sets %v explored %v matched %v; Analyze: sets %v explored %v matched %v",
					got.sets, got.explored, got.matched, want.sets, want.explored, want.matched)
			}
		})
	}
}

// TestExpectedVerdictsMatchInputs checks that expected.json was generated
// from the current input generators.
func TestExpectedVerdictsMatchInputs(t *testing.T) {
	for _, w := range workloads() {
		ins, err := w.inputs(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := expectedVerdicts(w, defaultSeed, ins)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range ins {
			if want[i].Input != in.name {
				t.Errorf("%s input %d: expected.json names %q, the generator %q", w.name, i, want[i].Input, in.name)
			}
		}
	}
}
