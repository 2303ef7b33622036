package experiments

import (
	"fmt"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// ParallelCheckWorkload builds the canonical checker-throughput
// workload: the largest market group under an expert configuration with
// the full invariant catalog, capped so every engine variant performs
// identical expansion work. BenchmarkParallelCheck and `iotsan-bench
// -table perf` (the BENCH_<date>.json record) share this single
// definition so the committed perf trajectory always measures exactly
// what the benchmark measures.
func ParallelCheckWorkload() (*model.Model, checker.Options, string, error) {
	largest := 1
	for g := 2; g <= 6; g++ {
		if len(corpus.Group(g)) > len(corpus.Group(largest)) {
			largest = g
		}
	}
	sources := corpus.Group(largest)
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	sys := ExpertConfig("parallel-bench", sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 3, CheckConflicts: true, Invariants: invs,
		Incremental: true,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 66, MaxStates: 20000}
	desc := fmt.Sprintf("market group %d (%d apps), MaxEvents=3, full invariants, cap %d states",
		largest, len(sources), copts.MaxStates)
	return m, copts, desc, nil
}

// GroupSchedulerWorkload builds the canonical multi-group Analyze
// workload: the two largest market groups installed as one system, so
// dependency analysis decomposes verification into many independent
// related sets. `iotsan-bench -table perf` runs it with sequential
// groups and with the concurrent group scheduler under the shared
// worker budget, recording the wall-clock for each into
// BENCH_<date>.json.
func GroupSchedulerWorkload() (*config.System, map[string]*ir.App, iotsan.Options, string, error) {
	sizes := make([]int, 7)
	for g := 1; g <= 6; g++ {
		sizes[g] = len(corpus.Group(g))
	}
	first, second := 1, 2
	for g := 2; g <= 6; g++ {
		switch {
		case sizes[g] > sizes[first]:
			first, second = g, first
		case g != first && sizes[g] > sizes[second]:
			second = g
		}
	}
	sources := append(append([]corpus.Source{}, corpus.Group(first)...), corpus.Group(second)...)
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, iotsan.Options{}, "", err
	}
	sys := ExpertConfig("group-sched-bench", sources, apps)
	opts := iotsan.Options{
		MaxEvents:       2,
		MaxStatesPerSet: 20000,
	}
	desc := fmt.Sprintf("market groups %d+%d (%d apps), MaxEvents=2, cap %d states/set",
		first, second, len(sources), opts.MaxStatesPerSet)
	return sys, apps, opts, desc, nil
}

// PORWorkload builds the canonical partial-order-reduction workload:
// the first 12 apps of market group 1 under the concurrent design at
// MaxEvents=2 with the full invariant catalog — fully explorable, so
// the with/without-POR state counts compare complete searches. The POR
// reduction gate (TestPORReductionGate) and `iotsan-bench -table perf`
// (the states-before/after + reduction-ratio record in
// BENCH_<date>.json) share this workload shape.
func PORWorkload() (*model.Model, checker.Options, string, error) {
	sources := corpus.Group(1)
	if len(sources) > 12 {
		sources = sources[:12]
	}
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	sys := ExpertConfig("por-bench", sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs, Design: model.Concurrent,
		Incremental: true,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 100}
	desc := fmt.Sprintf("market group 1 prefix (%d apps), concurrent design, MaxEvents=2, full invariants", len(sources))
	return m, copts, desc, nil
}

// SymmetrySystem builds the interchangeable-device deployment the
// symmetry gates and benchmarks share: the corpus symmetry group
// installed over three identical presence sensors and three identical
// entry contacts (two orbit capability types) driving a singleton hall
// light and front-door lock. Every multi-device input binds the whole
// fleet, so within-orbit sensor permutations induce isomorphic
// subspaces for the canonicalization layer to fold.
func SymmetrySystem(name string) (*config.System, map[string]*ir.App, error) {
	sources := corpus.SymmetryGroup()
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	sys := &config.System{
		Name:  name,
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "presA", Label: "Presence A", Model: "Presence Sensor"},
			{ID: "presB", Label: "Presence B", Model: "Presence Sensor"},
			{ID: "presC", Label: "Presence C", Model: "Presence Sensor"},
			{ID: "contactA", Label: "Door Contact A", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "contactB", Label: "Door Contact B", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "contactC", Label: "Door Contact C", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb"},
			{ID: "frontLock", Label: "Front Door Lock", Model: "Smart Lock", Association: props.RoleMainDoor},
		},
		Phones: []string{"15551230000"},
	}
	people := config.Binding{DeviceIDs: []string{"presA", "presB", "presC"}}
	contacts := config.Binding{DeviceIDs: []string{"contactA", "contactB", "contactC"}}
	light := config.Binding{DeviceIDs: []string{"hallLight"}}
	lock := config.Binding{DeviceIDs: []string{"frontLock"}}
	for _, s := range sources {
		inst := config.AppInstance{App: s.Name, Bindings: map[string]config.Binding{}}
		for _, in := range apps[s.Name].Inputs {
			switch in.Name {
			case "people":
				inst.Bindings[in.Name] = people
			case "contacts":
				inst.Bindings[in.Name] = contacts
			case "light":
				inst.Bindings[in.Name] = light
			case "lock1":
				inst.Bindings[in.Name] = lock
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return sys, apps, nil
}

// SymmetryWorkload builds the canonical symmetry-reduction workload:
// the interchangeable-device system under the concurrent design at
// MaxEvents=2 with the full invariant catalog and Options.Symmetry
// model tables — fully explorable, so with/without-symmetry state
// counts compare complete searches. The ≥30% fold gate
// (TestSymmetryReductionGate) and `iotsan-bench -table perf` (the
// symmetry_runs record in BENCH_<date>.json) share this workload.
func SymmetryWorkload() (*model.Model, checker.Options, string, error) {
	sys, apps, err := SymmetrySystem("symmetry-bench")
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true,
		Incremental: true,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 100}
	st := m.SymmetryStats()
	desc := fmt.Sprintf("symmetry group (%d apps, 3+3 interchangeable devices, %d orbits), concurrent design, MaxEvents=2, full invariants",
		len(sys.Apps), st.Orbits)
	return m, copts, desc, nil
}

// FaultSystem builds the climate deployment the fault-injection gates
// and benchmarks share: the corpus fault group installed over a
// temperature sensor, a space-heater outlet (association "heater"), a
// window-AC outlet (association "ac"), and a motion sensor. The
// heater/AC pair is switched off-before-on inside single handler runs,
// so the mutual-exclusion invariant over their associations only
// becomes violable once an outage can hold one of the commands in
// flight.
func FaultSystem(name string) (*config.System, map[string]*ir.App, error) {
	sources := corpus.FaultGroup()
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	sys := &config.System{
		Name:  name,
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "tempSensor", Label: "Room Temperature", Model: "Temperature Sensor"},
			{ID: "heaterOutlet", Label: "Space Heater", Model: "Space Heater", Association: props.RoleHeater},
			{ID: "acOutlet", Label: "Window AC", Model: "Window AC", Association: props.RoleAC},
			{ID: "hallMotion", Label: "Hall Motion", Model: "Motion Sensor"},
		},
		Phones: []string{"15551230000"},
	}
	for _, s := range sources {
		inst := config.AppInstance{App: s.Name, Bindings: map[string]config.Binding{}}
		for _, in := range apps[s.Name].Inputs {
			switch in.Name {
			case "sensor":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"tempSensor"}}
			case "heater":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"heaterOutlet"}}
			case "ac":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"acOutlet"}}
			case "motion":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"hallMotion"}}
			case "setpoint":
				inst.Bindings[in.Name] = config.Binding{Value: 75}
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return sys, apps, nil
}

// FaultWorkload builds the canonical fault-injection workload: the
// climate deployment at MaxEvents=2 with the full invariant catalog and
// the persistent fault layer configured with the given budget — fully
// explorable, so faults-off and faults-on state counts compare complete
// searches. The fault-only-violation reachability gate, the MaxFaults=0
// equivalence gate, and `iotsan-bench -table perf` (the fault_runs
// record in BENCH_<date>.json) share this workload.
func FaultWorkload(faults bool, maxFaults int) (*model.Model, checker.Options, string, error) {
	sys, apps, err := FaultSystem("fault-bench")
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, CheckRobustness: faults, Invariants: invs,
		Faults: faults, MaxFaults: maxFaults,
		Incremental: true,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 100 + 8*maxFaults}
	desc := fmt.Sprintf("fault group (%d apps, heater/AC exclusion), MaxEvents=2, full invariants, MaxFaults=%d",
		len(sys.Apps), maxFaults)
	return m, copts, desc, nil
}

// GroupModel builds the verification model for a configured system
// with the full invariant catalog at MaxEvents=2 — the equal-work
// benchmark workload (fully explorable, so every checker strategy
// performs identical expansion work).
func GroupModel(sys *config.System, apps map[string]*ir.App) (*model.Model, error) {
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	return model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs,
		Incremental: true,
	})
}

// EncodeWorkload builds the equal-work incremental-digest comparison
// workload: the PORWorkload shape (market group 1 prefix, concurrent
// design, MaxEvents=2, fully explorable so full-encode and incremental
// variants perform identical expansion work) with the incremental
// cache explicitly on or off. `iotsan-bench -table perf` (the
// encode_runs record in BENCH_<date>.json) runs it per strategy ×
// {plain, por}; the symmetry rows use SymmetryEncodeWorkload.
func EncodeWorkload(incremental bool) (*model.Model, checker.Options, string, error) {
	sources := corpus.Group(1)
	if len(sources) > 12 {
		sources = sources[:12]
	}
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	sys := ExpertConfig("encode-bench", sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs, Design: model.Concurrent,
		Incremental: incremental,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 100}
	desc := fmt.Sprintf("market group 1 prefix (%d apps), concurrent design, MaxEvents=2, full invariants", len(sources))
	return m, copts, desc, nil
}

// SymmetryEncodeWorkload is the SymmetryWorkload with the incremental
// cache explicitly on or off — the symmetry rows of the encode_runs
// comparison (cached per-device block hashes double as orbit profile
// keys, so the canonical path is where incremental reuse compounds).
func SymmetryEncodeWorkload(incremental bool) (*model.Model, checker.Options, string, error) {
	sys, apps, err := SymmetrySystem("symmetry-encode-bench")
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true,
		Incremental: incremental,
	})
	if err != nil {
		return nil, checker.Options{}, "", err
	}
	copts := checker.Options{MaxDepth: 100}
	desc := fmt.Sprintf("symmetry group (%d apps, 3+3 interchangeable devices), concurrent design, MaxEvents=2, full invariants", len(sys.Apps))
	return m, copts, desc, nil
}
