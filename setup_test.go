package iotsan_test

import (
	"fmt"
	"slices"
	"testing"

	"iotsan"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/props"
)

// TestInvariantsSameOnEverySubSystem guards the premise of compiling
// invariants once per Analyze call: a related set's sub-system keeps
// every device, so compiling against it yields the same invariant IDs,
// in the same order, as compiling against the whole system.
func TestInvariantsSameOnEverySubSystem(t *testing.T) {
	type cfg struct {
		name string
		sys  *config.System
	}
	var cfgs []cfg
	for g := 1; g <= 6; g++ {
		sources := corpus.Group(g)
		apps, err := experiments.TranslateAll(sources)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("group%d", g)
		cfgs = append(cfgs,
			cfg{name + "/expert", experiments.ExpertConfig(name, sources, apps)},
			cfg{name + "/volunteer", experiments.VolunteerConfig(name, sources, apps, int64(g))})
	}
	symSys, _, err := experiments.SymmetrySystem("symmetry")
	if err != nil {
		t.Fatal(err)
	}
	faultSys, _, err := experiments.FaultSystem("fault")
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, cfg{"symmetry", symSys}, cfg{"fault", faultSys})

	ids := func(t *testing.T, sys *config.System) []string {
		t.Helper()
		invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, inv := range invs {
			out = append(out, inv.ID)
		}
		return out
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			want := ids(t, c.sys)
			if len(want) == 0 {
				t.Fatal("no applicable invariants")
			}
			subsets := [][]string{nil}
			for _, inst := range c.sys.Apps {
				subsets = append(subsets, []string{inst.App})
			}
			for _, names := range subsets {
				if got := ids(t, iotsan.SubSystem(c.sys, names)); !slices.Equal(got, want) {
					t.Errorf("sub-system %q: invariants %v, want %v", names, got, want)
				}
			}
		})
	}
}

// TestRelatedSetsWithSpacedAppNames: app names may contain spaces, so
// the related-set dedup key must not be a space-joined list. Installed
// as "A", "B" and "A B", the apps form the related sets {A, B}, {B} and
// {"A B"}; a fmt.Sprint key made {A, B} and {"A B"} collide, and "It's
// Too Cold" was never verified.
func TestRelatedSetsWithSpacedAppNames(t *testing.T) {
	names := []string{"Auto Mode Change", "Unlock Door", "It's Too Cold"}
	var sources []corpus.Source
	for _, n := range names {
		s, ok := corpus.ByName(n)
		if !ok {
			t.Fatalf("corpus has no %q", n)
		}
		sources = append(sources, s)
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("spaced-names", sources, apps)
	installAs := []string{"A", "B", "A B"}
	src := map[string]string{}
	for i := range sys.Apps {
		sys.Apps[i].App = installAs[i]
		src[installAs[i]] = sources[i].Groovy
	}
	rep, err := iotsan.Analyze(sys, src, iotsan.Options{MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, g := range rep.Groups {
		got = append(got, g.Apps)
	}
	want := [][]string{{"A", "B"}, {"B"}, {"A B"}}
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("related sets %q, want %q", got, want)
	}
}

// TestPropertySelectionCompilesOnlySelected: Options.Properties selects
// the physical invariants too. A selection of event properties alone
// compiles none (it used to fall back to the whole physical catalog),
// and a physical id compiles exactly that invariant.
func TestPropertySelectionCompilesOnlySelected(t *testing.T) {
	sources := corpus.Group(1)[:4]
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("selection", sources, apps)
	for _, tc := range []struct {
		sel  []string
		want int
	}{
		{[]string{"conflicting-commands"}, 0},
		{[]string{"conflicting-commands", "lock.main-door-when-away"}, 1},
		{nil, 0}, // the applicable catalog: checked against CompileInvariants below
	} {
		want := tc.want
		if tc.sel == nil {
			invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
			if err != nil {
				t.Fatal(err)
			}
			want = len(invs)
		}
		rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 1, Properties: tc.sel})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range rep.Groups {
			if g.InvariantCount != want {
				t.Errorf("Properties %q: group %q compiled %d invariants, want %d", tc.sel, g.Apps, g.InvariantCount, want)
			}
		}
	}
}
