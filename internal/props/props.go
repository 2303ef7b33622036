// Package props carries IotSan's default safety-property catalog: the
// 45 properties of §8 — 38 safe-physical-state properties across the six
// categories of Table 4 (expressed in LTL and compiled through the ltl
// package), free-of-conflicting-commands, free-of-repeated-commands,
// four information-leakage / suspicious-behaviour properties, and the
// device-failure robustness property.
//
// Physical properties are written against device *association roles*
// (§7: the user tells the Configuration Extractor that an outlet
// controls the AC, that a lock is the main door, ...). Compilation binds
// roles to the system's devices and skips properties whose roles are
// absent, mirroring "the LTL format of the selected properties are
// automatically generated" from the device association information.
package props

import (
	"fmt"
	"slices"
	"sync"

	"iotsan/internal/config"
	"iotsan/internal/ltl"
	"iotsan/internal/model"
)

// Thresholds parameterise the numeric properties ("predefined
// threshold" in the paper).
type Thresholds struct {
	TempLow   int64 // heater should run below this
	TempHigh  int64 // AC should run above this; heater must not
	SoilLow   int64
	SoilHigh  int64
	HumidHigh int64
}

// DefaultThresholds are sensible smart-home defaults (°F).
func DefaultThresholds() Thresholds {
	return Thresholds{TempLow: 60, TempHigh: 80, SoilLow: 20, SoilHigh: 50, HumidHigh: 70}
}

// Kind distinguishes how a property is checked.
type Kind int

// Property kinds.
const (
	// Physical properties are LTL invariants over device state,
	// evaluated on every reached state.
	Physical Kind = iota
	// Event properties are raised by the execution engine on
	// transitions (conflicting/repeated commands, leakage, robustness).
	Event
)

// Property is one catalog entry.
type Property struct {
	ID          string
	Category    string // Table 4 category
	Description string
	Kind        Kind
	// LTL is the formal statement for Physical properties.
	LTL string
	// Roles lists association roles the property requires; Capabilities
	// lists required device capabilities. A physical property compiles
	// only when every requirement is satisfiable in the system.
	Roles        []string
	Capabilities []string
}

// Association roles the catalog binds to (users assign these in the
// Configuration Extractor).
const (
	RoleHeater        = "heater"
	RoleAC            = "ac"
	RoleMainDoor      = "main door"
	RoleGarage        = "garage door"
	RoleEntryContact  = "entry contact"
	RoleAlarm         = "alarm"
	RoleSecuritySw    = "security switch"
	RoleFireValve     = "fire sprinkler valve"
	RoleWaterMain     = "main water valve"
	RoleSprinkler     = "sprinkler"
	RoleNightDevice   = "night-off device"
	RoleAwayDevice    = "away-off device"
	RoleEntertainment = "entertainment"
	RoleShade         = "window shade"
	RoleCamera        = "camera"
	RoleNightLight    = "night light"
)

// Catalog returns all 45 properties. The slice is the caller's; the
// entries' Roles and Capabilities are shared and must not be modified.
func Catalog() []Property { return slices.Clone(catalog()) }

// catalog is the process-wide catalog, built once: the 38 physical
// properties first, then the event properties.
var catalog = sync.OnceValue(func() []Property {
	return append(physicalCatalog(),
		Property{ID: model.PropConflicting, Category: "Commands", Kind: Event,
			Description: "When a single external event happens, an actuator should not receive two conflicting commands"},
		Property{ID: model.PropRepeated, Category: "Commands", Kind: Event,
			Description: "When a single event happens, an actuator should not receive repeated commands of the same type"},
		Property{ID: model.PropLeakNetwork, Category: "Leakage", Kind: Event,
			Description: "Private information is sent out via message interfaces only, never via network interfaces"},
		Property{ID: model.PropLeakSMS, Category: "Leakage", Kind: Event,
			Description: "Recipients of messaging methods match the configured phone numbers or contacts"},
		Property{ID: model.PropSuspUnsub, Category: "Leakage", Kind: Event,
			Description: "No security-sensitive unsubscribe command is executed at run time"},
		Property{ID: model.PropSuspFakeEvent, Category: "Leakage", Kind: Event,
			Description: "No fake physical events are generated by apps"},
		Property{ID: model.PropRobustness, Category: "Robustness", Kind: Event,
			Description: "An app should verify that actuator commands were acted upon and notify the user when one is lost — to a transient failure or to a persistent device outage that silently drops it"},
	)
})

// IDs returns the catalog property ids.
func IDs() []string {
	out := make([]string, 0, len(catalog()))
	for _, p := range catalog() {
		out = append(out, p.ID)
	}
	return out
}

// ByID returns a catalog property.
func ByID(id string) (Property, bool) {
	for _, p := range catalog() {
		if p.ID == id {
			return p, true
		}
	}
	return Property{}, false
}

// Applicable reports whether a physical property's required roles and
// capabilities exist in the system.
func (p *Property) Applicable(sys *config.System) bool {
	if p.Kind != Physical {
		return true
	}
	for _, r := range p.Roles {
		if len(sys.DevicesByAssociation(r)) == 0 {
			return false
		}
	}
	for _, c := range p.Capabilities {
		if !systemHasCapability(sys, c) {
			return false
		}
	}
	return true
}

func systemHasCapability(sys *config.System, capName string) bool {
	for _, d := range sys.Devices {
		if m := modelOf(d.Model); m != nil && m.HasCapability(capName) {
			return true
		}
	}
	return false
}

// physicalBodies parses and safety-checks every physical formula once
// per process. bodies[i] is the propositional body of catalog()[i] (nil
// for event properties).
var physicalBodies = sync.OnceValues(func() ([]*ltl.Formula, error) {
	bodies := make([]*ltl.Formula, len(catalog()))
	for i, p := range catalog() {
		if p.Kind != Physical {
			continue
		}
		f, err := ltl.Parse(p.LTL)
		if err != nil {
			return nil, fmt.Errorf("props: %s: %w", p.ID, err)
		}
		mon, err := ltl.CompileSafety(f)
		if err != nil {
			return nil, fmt.Errorf("props: %s: %w", p.ID, err)
		}
		if mon.Kind != ltl.Invariant {
			return nil, fmt.Errorf("props: %s: only invariant monitors can run under DFS", p.ID)
		}
		bodies[i] = f.L
	}
	return bodies, nil
})

// CompileInvariants compiles every applicable physical property (or the
// selected subset when ids is non-nil) against a system. The returned
// invariants are pure closures (their per-state memo lives in the
// model.View), so models verified concurrently may share them.
func CompileInvariants(sys *config.System, ids []string, th Thresholds) ([]model.Invariant, error) {
	bodies, err := physicalBodies()
	if err != nil {
		return nil, err
	}
	var atoms atomMap
	var out []model.Invariant
	for i, p := range catalog() {
		if p.Kind != Physical || ids != nil && !slices.Contains(ids, p.ID) || !p.Applicable(sys) {
			continue
		}
		if atoms == nil {
			atoms = commonAtoms(th)
		}
		// Bind the invariant's propositional body straight to the atom
		// evaluators: stepping it per state is then closed closure calls
		// with no per-evaluation environment closure or atom map lookups.
		holds, err := ltl.Bind(bodies[i], func(name string) func(*model.View) bool { return atoms[name] })
		if err != nil {
			return nil, fmt.Errorf("props: %s: %w", p.ID, err)
		}
		out = append(out, model.Invariant{ID: p.ID, Description: p.Description, Holds: holds})
	}
	return out, nil
}
