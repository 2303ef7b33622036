package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"iotsan"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/props"
)

// input is one Analyze call: a configured home and the Groovy sources of
// its installed apps.
type input struct {
	name    string
	sys     *config.System
	sources map[string]string
}

// workload is a family of Analyze calls sharing one set of options. Its
// inputs are a pure function of the seed.
type workload struct {
	name   string
	opts   iotsan.Options
	inputs func(seed int64) ([]input, error)
}

// Pool sizes: the inputs one pass analyzes. Each pass is long enough that
// a seed's particular draw moves the pass total by little (the per-input
// state counts differ by under 2% across draws).
const (
	installConfigsPerGroup = 10 // × 10 groups = 100 calls per pass
	deepConfigs            = 6
	fleetCount             = 6
)

func workloads() []workload {
	return []workload{
		{
			name:   "install-check",
			opts:   iotsan.Options{MaxEvents: 1, Design: iotsan.Sequential, Strategy: iotsan.StrategyDFS},
			inputs: installCheckInputs,
		},
		{
			name:   "deep-sequential",
			opts:   iotsan.Options{MaxEvents: 4, Design: iotsan.Sequential, Strategy: iotsan.StrategyDFS, NoDepGraph: true},
			inputs: deepSequentialInputs,
		},
		{
			name: "concurrent-fleet",
			opts: iotsan.Options{
				MaxEvents: 3, Design: iotsan.Concurrent, NoDepGraph: true,
				POR: true, Symmetry: true,
				Strategy: iotsan.StrategySteal, Workers: runtime.NumCPU(),
			},
			inputs: concurrentFleetInputs,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// volunteerGroups are the ten 5-app groups of related market apps that
// the paper's volunteers configured (Table 6).
var volunteerGroups = [][]string{
	{"Virtual Thermostat", "It's Too Cold", "It's Too Hot", "Heater Minder", "AC Minder"},
	{"Brighten Dark Places", "Let There Be Dark!", "Let There Be Light", "Smart Nightlight", "Closet Light"},
	{"Auto Mode Change", "Unlock Door", "Big Turn On", "Big Turn Off", "Make It So"},
	{"Good Night", "Light Follows Me", "Light Off When Close", "Darken Behind Me", "Lights Out at Night"},
	{"Smart Security", "Intruder Strobe", "Entry Breach Siren", "Alarm Silencer", "Security Arm on Away"},
	{"Lock It When I Leave", "Unlock When I Arrive", "Auto Lock Door", "Guest Mode Unlock", "Everyone's Gone"},
	{"Smoke Alarm Actions", "Smoke Heater Cutoff", "Fire Escape Unlock", "Smoke Valve Protect", "Smoke Lights Beacon"},
	{"Flood Alert", "Basement Water Watch", "Water Heater Leak Guard", "Presence Valve Control", "Leak Chime"},
	{"Comfort Band Keeper", "Window Fan When Cool", "Night Heat Drop", "Space Heater Curfew", "Freeze Guard"},
	{"I'm Back", "Two Stage Departure", "Switch Changes Mode", "Sunset Mode Change", "Sunrise Mode Change"},
}

// table8Apps is the violation-free 5-app system of Table 8.
var table8Apps = []string{"Good Night", "It's Too Cold", "Light Follows Me", "Darken Behind Me", "Lights Out at Night"}

// corpusApps resolves app names to their corpus sources.
func corpusApps(names []string) ([]corpus.Source, map[string]string, error) {
	var sources []corpus.Source
	groovy := map[string]string{}
	for _, n := range names {
		s, ok := corpus.ByName(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown corpus app %q", n)
		}
		sources = append(sources, s)
		groovy[n] = s.Groovy
	}
	return sources, groovy, nil
}

// volunteerInputs draws count seeded volunteer configurations of one app
// set over the shared home inventory.
func volunteerInputs(prefix string, names []string, count int, rng *rand.Rand) ([]input, error) {
	sources, groovy, err := corpusApps(names)
	if err != nil {
		return nil, err
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		return nil, err
	}
	var out []input
	for v := 0; v < count; v++ {
		name := fmt.Sprintf("%s/v%d", prefix, v)
		sys := experiments.VolunteerConfig(name, sources, apps, rng.Int63())
		out = append(out, input{name: name, sys: sys, sources: groovy})
	}
	return out, nil
}

func installCheckInputs(seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []input
	for g, names := range volunteerGroups {
		ins, err := volunteerInputs(fmt.Sprintf("g%d", g), names, installConfigsPerGroup, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, ins...)
	}
	return out, nil
}

func deepSequentialInputs(seed int64) ([]input, error) {
	return volunteerInputs("table8", table8Apps, deepConfigs, rand.New(rand.NewSource(seed)))
}

// concurrentFleetInputs installs the corpus symmetry group over seeded
// fleets of 2–4 interchangeable presence sensors and 2–4 entry contacts.
// The first fleet of every pool is 2+2, so each pass runs both
// canonicalisation paths: pair orbits take the flat canonical encoder and
// larger orbits the cached-hash fold (see flatCanonMaxOrbit in
// internal/model/symmetry.go).
func concurrentFleetInputs(seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []input
	for f := 0; f < fleetCount; f++ {
		people, contacts := 2, 2
		if f > 0 {
			people, contacts = 2+rng.Intn(3), 2+rng.Intn(3)
		}
		in, err := fleetInput(fmt.Sprintf("fleet%d/%dp%dc", f, people, contacts), people, contacts)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// fleetInput builds one interchangeable-device home: every multi-device
// input of the symmetry group binds the whole fleet, and the apps drive a
// singleton hall light and front-door lock.
func fleetInput(name string, people, contacts int) (input, error) {
	sources := corpus.SymmetryGroup()
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		return input{}, err
	}
	sys := &config.System{
		Name:   name,
		Modes:  []string{"Home", "Away", "Night"},
		Mode:   "Home",
		Phones: []string{"15551230000"},
	}
	var peopleIDs, contactIDs []string
	for i := 0; i < people; i++ {
		id := fmt.Sprintf("presence%d", i)
		peopleIDs = append(peopleIDs, id)
		sys.Devices = append(sys.Devices, config.Device{ID: id, Label: "Presence " + id, Model: "Presence Sensor"})
	}
	for i := 0; i < contacts; i++ {
		id := fmt.Sprintf("contact%d", i)
		contactIDs = append(contactIDs, id)
		sys.Devices = append(sys.Devices, config.Device{ID: id, Label: "Door " + id, Model: "Contact Sensor", Association: props.RoleEntryContact})
	}
	sys.Devices = append(sys.Devices,
		config.Device{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb"},
		config.Device{ID: "frontLock", Label: "Front Door Lock", Model: "Smart Lock", Association: props.RoleMainDoor},
	)
	bindings := map[string]config.Binding{
		"people":   {DeviceIDs: peopleIDs},
		"contacts": {DeviceIDs: contactIDs},
		"light":    {DeviceIDs: []string{"hallLight"}},
		"lock1":    {DeviceIDs: []string{"frontLock"}},
	}
	groovy := map[string]string{}
	for _, s := range sources {
		groovy[s.Name] = s.Groovy
		inst := config.AppInstance{App: s.Name, Bindings: map[string]config.Binding{}}
		for _, in := range apps[s.Name].Inputs {
			if b, ok := bindings[in.Name]; ok {
				inst.Bindings[in.Name] = b
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return input{name: name, sys: sys, sources: groovy}, nil
}
