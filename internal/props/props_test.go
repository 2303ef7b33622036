package props_test

import (
	"slices"
	"sync"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/experiments"
	"iotsan/internal/ltl"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// homeSystem is the shared device inventory with no apps installed:
// every role and capability the physical catalog requires is present.
func homeSystem() *config.System {
	return &config.System{
		Name:    "props-home",
		Modes:   []string{"Home", "Away", "Night"},
		Mode:    "Home",
		Devices: experiments.HomeInventory(),
	}
}

func TestCatalogShape(t *testing.T) {
	cat := props.Catalog()
	ids := props.IDs()
	if len(cat) != 45 || len(ids) != 45 {
		t.Fatalf("catalog has %d entries and %d ids, want 45", len(cat), len(ids))
	}
	physical := 0
	for i, p := range cat {
		if p.Kind == props.Physical {
			physical++
		}
		if ids[i] != p.ID {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], p.ID)
		}
		if q, ok := props.ByID(p.ID); !ok || q.Description != p.Description {
			t.Errorf("ByID(%q) = %v, %v", p.ID, q.ID, ok)
		}
	}
	if physical != 38 {
		t.Errorf("%d physical properties, want 38", physical)
	}
	if len(slices.Compact(slices.Sorted(slices.Values(ids)))) != len(ids) {
		t.Error("duplicate property ids")
	}
	// The catalog is built once; a caller's copy must not alias it.
	cat[0].ID = "mutated"
	if props.Catalog()[0].ID == "mutated" {
		t.Error("Catalog returned the shared slice")
	}
}

// TestPhysicalFormulas: every physical formula parses to an invariant
// monitor, and compiles on the home inventory with every atom bound.
func TestPhysicalFormulas(t *testing.T) {
	sys := homeSystem()
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical {
			continue
		}
		t.Run(p.ID, func(t *testing.T) {
			f, err := ltl.Parse(p.LTL)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := ltl.CompileSafety(f)
			if err != nil {
				t.Fatal(err)
			}
			if mon.Kind != ltl.Invariant {
				t.Fatalf("monitor kind %v, want an invariant", mon.Kind)
			}
			if !p.Applicable(sys) {
				t.Fatal("not applicable on the home inventory")
			}
			invs, err := props.CompileInvariants(sys, []string{p.ID}, props.DefaultThresholds())
			if err != nil {
				t.Fatal(err)
			}
			if len(invs) != 1 || invs[0].ID != p.ID || invs[0].Holds == nil {
				t.Fatalf("compiled %v", invs)
			}
		})
	}
}

// TestInvariantsShareAcrossViews: compiled invariants are pure
// closures whose memo lives in the View, so goroutines evaluating one
// []model.Invariant on different Views agree with a serial evaluation
// (and are race-free under -race).
func TestInvariantsShareAcrossViews(t *testing.T) {
	sys := homeSystem()
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, nil, model.Options{MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	var states []*model.State
	for _, tr := range m.Expand(m.Initial()) {
		states = append(states, tr.Next.(*model.State))
	}
	if len(states) < 2 {
		t.Fatalf("%d successor states, want several", len(states))
	}
	eval := func(s *model.State) []bool {
		v := &model.View{M: m, S: s}
		out := make([]bool, len(invs))
		for i, inv := range invs {
			out[i] = inv.Holds(v)
		}
		return out
	}
	want := make([][]bool, len(states))
	for i, s := range states {
		want[i] = eval(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, s := range states {
					if got := eval(s); !slices.Equal(got, want[i]) {
						t.Errorf("state %d: concurrent verdicts %v, serial %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
