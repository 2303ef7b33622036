package props

import (
	"iotsan/internal/device"
	"iotsan/internal/model"
)

func modelOf(name string) *device.Model { return device.ModelByName(name) }

// ---- atom builders ----

type atomMap = map[string]func(v *model.View) bool

// anyAssoc is true when any device with the role has attr == value.
func anyAssoc(role, attr, value string) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByAssociation(role) {
			if v.AttrEquals(d, attr, value) {
				return true
			}
		}
		return false
	}
}

// allAssoc is true when every device with the role has attr == value.
func allAssoc(role, attr, value string) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByAssociation(role) {
			if !v.AttrEquals(d, attr, value) {
				return false
			}
		}
		return true
	}
}

// anyCap is true when any device with the capability has attr == value.
func anyCap(capName, attr, value string) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByCapability(capName) {
			if v.AttrEquals(d, attr, value) {
				return true
			}
		}
		return false
	}
}

// tempBelow / tempAbove read any temperature sensor.
func tempBelow(th int64) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByCapability("temperatureMeasurement") {
			if n, ok := v.AttrNumber(d, "temperature"); ok && n < th {
				return true
			}
		}
		return false
	}
}

func tempAbove(th int64) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByCapability("temperatureMeasurement") {
			if n, ok := v.AttrNumber(d, "temperature"); ok && n > th {
				return true
			}
		}
		return false
	}
}

func numBelow(capName, attr string, th int64) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByCapability(capName) {
			if n, ok := v.AttrNumber(d, attr); ok && n < th {
				return true
			}
		}
		return false
	}
}

func numAbove(capName, attr string, th int64) func(v *model.View) bool {
	return func(v *model.View) bool {
		for _, d := range v.ByCapability(capName) {
			if n, ok := v.AttrNumber(d, attr); ok && n > th {
				return true
			}
		}
		return false
	}
}

func modeIs(mode string) func(v *model.View) bool {
	return func(v *model.View) bool { return v.Mode() == mode }
}

// Memo slots for the shared atoms: one View.Memo slot per atom name, so
// the dozens of catalog properties referencing the same predicate scan
// the device lists once per inspected state instead of once per
// property. Slot identity assumes one Thresholds per compiled invariant
// set (CompileInvariants compiles a whole catalog with a single th, so
// same-named atoms are identical predicates).
const (
	slotAnyoneHome = iota
	slotModeAway
	slotModeHome
	slotModeNight
	slotSmoke
	slotCO
	slotLeak
	slotMotion
	slotTempLow
	slotTempHigh
	slotHeaterOn
	slotHeaterOff
	slotACOn
	slotACOff
	slotMainLocked
	slotMainUnlocked
	slotAnyLockUnlocked
	slotGarageOpen
	slotGarageClosed
	slotEntryOpen
	slotAnyDoorOpen
	slotAlarmOff
	slotSecurityArmed
	slotCamera
	slotButtonHeld
	slotSleeping
	slotFireValveClosed
	slotWaterMainOpen
	slotWaterMainClosed
	slotSprinklerOn
	slotSprinklerOff
	slotSoilDry
	slotSoilWet
	slotHumidityHigh
	slotAwayDeviceOn
	slotNightDeviceOn
	slotEntertainmentOn
	slotShadeOpen
	slotNightLightOn
	slotThermSpanBad
	numSlots
)

// shared wraps an atom predicate in its per-state memo slot.
func shared(slot int, f func(*model.View) bool) func(*model.View) bool {
	return func(v *model.View) bool { return v.Memo(slot, f) }
}

// commonAtoms are shared across the catalog.
func commonAtoms(th Thresholds) atomMap {
	if numSlots > model.ViewMemoSlots {
		panic("props: atom catalog outgrew model.ViewMemoSlots")
	}
	return atomMap{
		"anyone_home":    shared(slotAnyoneHome, func(v *model.View) bool { return v.AnyoneHome() }),
		"mode_away":      shared(slotModeAway, modeIs("Away")),
		"mode_home":      shared(slotModeHome, modeIs("Home")),
		"mode_night":     shared(slotModeNight, modeIs("Night")),
		"smoke_detected": shared(slotSmoke, func(v *model.View) bool { return v.SmokeDetected() }),
		"co_detected":    shared(slotCO, func(v *model.View) bool { return v.CODetected() }),
		"leak_detected":  shared(slotLeak, func(v *model.View) bool { return v.LeakDetected() }),
		"motion_active":  shared(slotMotion, func(v *model.View) bool { return v.AnyMotion() }),
		"temp_low":       shared(slotTempLow, tempBelow(th.TempLow)),
		"temp_high":      shared(slotTempHigh, tempAbove(th.TempHigh)),

		"heater_on":  shared(slotHeaterOn, anyAssoc(RoleHeater, "switch", "on")),
		"heater_off": shared(slotHeaterOff, anyAssoc(RoleHeater, "switch", "off")),
		"ac_on":      shared(slotACOn, anyAssoc(RoleAC, "switch", "on")),
		"ac_off":     shared(slotACOff, anyAssoc(RoleAC, "switch", "off")),

		"main_door_locked":   shared(slotMainLocked, allAssoc(RoleMainDoor, "lock", "locked")),
		"main_door_unlocked": shared(slotMainUnlocked, anyAssoc(RoleMainDoor, "lock", "unlocked")),
		"any_lock_unlocked":  shared(slotAnyLockUnlocked, anyCap("lock", "lock", "unlocked")),
		"garage_open":        shared(slotGarageOpen, anyAssoc(RoleGarage, "door", "open")),
		"garage_closed":      shared(slotGarageClosed, allAssoc(RoleGarage, "door", "closed")),
		"entry_contact_open": shared(slotEntryOpen, anyAssoc(RoleEntryContact, "contact", "open")),
		"any_door_open":      shared(slotAnyDoorOpen, anyCap("doorControl", "door", "open")),

		// alarm_active shares alarm_off's slot (it is its negation), so
		// the alarm scan runs at most once per state.
		"alarm_active":     func(v *model.View) bool { return !v.Memo(slotAlarmOff, allAlarmsOff) },
		"alarm_off":        shared(slotAlarmOff, allAlarmsOff),
		"security_armed":   shared(slotSecurityArmed, anyAssoc(RoleSecuritySw, "switch", "on")),
		"camera_capturing": shared(slotCamera, anyAssoc(RoleCamera, "image", "taken")),
		"button_held":      shared(slotButtonHeld, anyCap("button", "button", "held")),
		"sleeping":         shared(slotSleeping, anyCap("sleepSensor", "sleeping", "sleeping")),

		"fire_valve_closed": shared(slotFireValveClosed, anyAssoc(RoleFireValve, "valve", "closed")),
		"water_main_open":   shared(slotWaterMainOpen, anyAssoc(RoleWaterMain, "valve", "open")),
		"water_main_closed": shared(slotWaterMainClosed, allAssoc(RoleWaterMain, "valve", "closed")),
		"sprinkler_on":      shared(slotSprinklerOn, anyAssoc(RoleSprinkler, "switch", "on")),
		"sprinkler_off":     shared(slotSprinklerOff, allAssoc(RoleSprinkler, "switch", "off")),
		"soil_dry":          shared(slotSoilDry, numBelow("soilMoistureMeasurement", "soilMoisture", th.SoilLow)),
		"soil_wet":          shared(slotSoilWet, numAbove("soilMoistureMeasurement", "soilMoisture", th.SoilHigh)),
		"humidity_high":     shared(slotHumidityHigh, numAbove("relativeHumidityMeasurement", "humidity", th.HumidHigh)),

		"away_device_on":      shared(slotAwayDeviceOn, anyAssoc(RoleAwayDevice, "switch", "on")),
		"night_device_on":     shared(slotNightDeviceOn, anyAssoc(RoleNightDevice, "switch", "on")),
		"entertainment_on":    shared(slotEntertainmentOn, anyAssoc(RoleEntertainment, "status", "playing")),
		"shade_open":          shared(slotShadeOpen, anyAssoc(RoleShade, "windowShade", "open")),
		"night_light_on":      shared(slotNightLightOn, anyAssoc(RoleNightLight, "switch", "on")),
		"thermostat_span_bad": shared(slotThermSpanBad, thermostatSpanBad),
	}
}

func allAlarmsOff(v *model.View) bool {
	for _, d := range v.ByCapability("alarm") {
		if !v.AttrEquals(d, "alarm", "off") {
			return false
		}
	}
	return true
}

func thermostatSpanBad(v *model.View) bool {
	for _, d := range v.ByCapability("thermostat") {
		h, ok1 := v.AttrNumber(d, "heatingSetpoint")
		c, ok2 := v.AttrNumber(d, "coolingSetpoint")
		if ok1 && ok2 && h > c {
			return true
		}
	}
	return false
}

func phys(id, category, desc, formula string, roles, caps []string) Property {
	return Property{
		ID: id, Category: category, Description: desc, Kind: Physical,
		LTL: formula, Roles: roles, Capabilities: caps,
	}
}

// physicalCatalog returns the 38 safe-physical-state properties of
// Table 4 (5 thermostat/AC/heater + 8 lock/door + 3 location mode + 14
// security/alarm + 3 water/sprinkler + 5 others).
func physicalCatalog() []Property {
	const (
		catTherm = "Thermostat, AC, and Heater"
		catLock  = "Lock and door control"
		catMode  = "Location mode"
		catSec   = "Security and alarming"
		catWater = "Water and sprinkler"
		catOther = "Others"
	)
	return []Property{
		// ---- Thermostat, AC, and Heater (5) ----
		phys("therm.heater-on-when-cold-at-home", catTherm,
			"A heater should not be off when the temperature is below the threshold and people are at home",
			"G !(anyone_home && temp_low && heater_off)",
			[]string{RoleHeater}, []string{"temperatureMeasurement", "presenceSensor"}),
		phys("therm.heater-not-on-when-hot", catTherm,
			"A heater is turned on when temperature is above a predefined threshold",
			"G !(temp_high && heater_on)",
			[]string{RoleHeater}, []string{"temperatureMeasurement"}),
		phys("therm.ac-not-on-when-cold", catTherm,
			"An AC is turned on when temperature is below a predefined threshold",
			"G !(temp_low && ac_on)",
			[]string{RoleAC}, []string{"temperatureMeasurement"}),
		phys("therm.ac-and-heater-both-on", catTherm,
			"An AC and a heater are both turned on",
			"G !(ac_on && heater_on)",
			[]string{RoleAC, RoleHeater}, nil),
		phys("therm.setpoint-span", catTherm,
			"A thermostat's heating setpoint must not exceed its cooling setpoint",
			"G !thermostat_span_bad",
			nil, []string{"thermostat"}),

		// ---- Lock and door control (8) ----
		phys("lock.main-door-when-away", catLock,
			"The main door should be locked when no one is at home",
			"G (anyone_home || main_door_locked)",
			[]string{RoleMainDoor}, []string{"presenceSensor"}),
		phys("lock.main-door-at-night", catLock,
			"The main door should be locked when people are sleeping at night",
			"G (!mode_night || main_door_locked)",
			[]string{RoleMainDoor}, nil),
		phys("lock.unlockable-during-fire", catLock,
			"The main door must not stay locked while smoke is detected and people are at home",
			"G !(smoke_detected && anyone_home && main_door_locked)",
			[]string{RoleMainDoor}, []string{"smokeDetector", "presenceSensor"}),
		phys("lock.garage-closed-when-away", catLock,
			"The garage door should be closed when no one is at home",
			"G (anyone_home || garage_closed)",
			[]string{RoleGarage}, []string{"presenceSensor"}),
		phys("lock.garage-closed-at-night", catLock,
			"The garage door should be closed at night",
			"G (!mode_night || garage_closed)",
			[]string{RoleGarage}, nil),
		phys("lock.all-locked-when-away", catLock,
			"Every lock should be locked when the location mode is Away",
			"G !(mode_away && any_lock_unlocked)",
			nil, []string{"lock"}),
		phys("lock.doors-closed-when-away", catLock,
			"Controlled doors should be closed when no one is at home",
			"G !(mode_away && any_door_open)",
			nil, []string{"doorControl"}),
		phys("lock.entry-closed-when-away", catLock,
			"The entry door contact should not be open when no one is at home",
			"G (anyone_home || !entry_contact_open)",
			[]string{RoleEntryContact}, []string{"presenceSensor"}),

		// ---- Location mode (3) ----
		phys("mode.away-when-no-one-home", catMode,
			"Location mode should be changed to Away when no one is at home",
			"G (anyone_home || mode_away)",
			nil, []string{"presenceSensor"}),
		phys("mode.not-away-when-home", catMode,
			"Location mode should not be Away while someone is at home",
			"G !(anyone_home && mode_away)",
			nil, []string{"presenceSensor"}),
		phys("mode.night-when-sleeping", catMode,
			"Location mode should be Night while people are sleeping",
			"G (!sleeping || mode_night)",
			nil, []string{"sleepSensor"}),

		// ---- Security and alarming (14) ----
		phys("sec.alarm-on-smoke", catSec,
			"An alarm should strobe/siren when detecting smoke",
			"G (!smoke_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"smokeDetector"}),
		phys("sec.alarm-on-co", catSec,
			"An alarm should strobe/siren when detecting carbon monoxide",
			"G (!co_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"carbonMonoxideDetector"}),
		phys("sec.alarm-on-intrusion-motion", catSec,
			"An alarm should be triggered when motion is detected while no one is at home",
			"G !(mode_away && motion_active && alarm_off)",
			[]string{RoleAlarm}, []string{"motionSensor"}),
		phys("sec.alarm-on-intrusion-contact", catSec,
			"An alarm should be triggered when the entry opens while no one is at home",
			"G !(mode_away && entry_contact_open && alarm_off)",
			[]string{RoleAlarm, RoleEntryContact}, nil),
		phys("sec.no-spurious-alarm", catSec,
			"Siren/strobe is activated when no intruder or hazard is detected",
			"G (alarm_off || smoke_detected || co_detected || leak_detected || motion_active || entry_contact_open || button_held)",
			[]string{RoleAlarm}, nil),
		phys("sec.armed-when-away", catSec,
			"The security system should be armed when the location mode is Away",
			"G (!mode_away || security_armed)",
			[]string{RoleSecuritySw}, nil),
		phys("sec.disarmed-when-home", catSec,
			"The siren should not sound while the mode is Home and someone is present",
			"G !(mode_home && anyone_home && alarm_active && !smoke_detected && !co_detected)",
			[]string{RoleAlarm}, []string{"presenceSensor"}),
		phys("sec.sprinkler-supply-during-fire", catSec,
			"The fire sprinkler valve must not be closed while smoke is detected",
			"G !(smoke_detected && fire_valve_closed)",
			[]string{RoleFireValve}, []string{"smokeDetector"}),
		phys("sec.camera-on-intrusion", catSec,
			"A camera should capture when motion is detected while no one is at home",
			"G !(mode_away && motion_active && !camera_capturing)",
			[]string{RoleCamera}, []string{"motionSensor"}),
		phys("sec.camera-privacy-at-home", catSec,
			"Cameras should not capture while the family is at home in Home mode",
			"G !(mode_home && anyone_home && camera_capturing)",
			[]string{RoleCamera}, []string{"presenceSensor"}),
		phys("sec.alarm-on-panic-button", catSec,
			"An alarm should be triggered when the panic button is held",
			"G (!button_held || alarm_active)",
			[]string{RoleAlarm}, []string{"button"}),
		phys("sec.heater-off-during-fire", catSec,
			"A heater should be switched off while smoke is detected",
			"G !(smoke_detected && heater_on)",
			[]string{RoleHeater}, []string{"smokeDetector"}),
		phys("sec.outlets-off-during-fire", catSec,
			"High-power away-off outlets should be off while smoke is detected",
			"G !(smoke_detected && away_device_on)",
			[]string{RoleAwayDevice}, []string{"smokeDetector"}),
		phys("sec.alarm-on-leak", catSec,
			"An alarm should be triggered when a water leak is detected",
			"G (!leak_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"waterSensor"}),

		// ---- Water and sprinkler (3) ----
		phys("water.sprinkler-on-when-dry", catWater,
			"Soil moisture should be within a predefined range: the sprinkler runs when soil is dry",
			"G !(soil_dry && sprinkler_off)",
			[]string{RoleSprinkler}, []string{"soilMoistureMeasurement"}),
		phys("water.sprinkler-off-when-wet", catWater,
			"Soil moisture should be within a predefined range: the sprinkler stops when soil is wet",
			"G !(soil_wet && sprinkler_on)",
			[]string{RoleSprinkler}, []string{"soilMoistureMeasurement"}),
		phys("water.main-closed-on-leak", catWater,
			"The main water valve should be closed when a leak is detected",
			"G (!leak_detected || water_main_closed)",
			[]string{RoleWaterMain}, []string{"waterSensor"}),

		// ---- Others (5) ----
		phys("other.away-devices-off", catOther,
			"Some devices should not be turned on when no one is at home",
			"G (anyone_home || !away_device_on)",
			[]string{RoleAwayDevice}, []string{"presenceSensor"}),
		phys("other.night-devices-off", catOther,
			"Designated devices should be off during Night mode",
			"G !(mode_night && night_device_on)",
			[]string{RoleNightDevice}, nil),
		phys("other.entertainment-off-at-night", catOther,
			"Entertainment devices should not be playing during Night mode",
			"G !(mode_night && entertainment_on)",
			[]string{RoleEntertainment}, nil),
		phys("other.shades-closed-at-night", catOther,
			"Window shades should be closed during Night mode",
			"G !(mode_night && shade_open)",
			[]string{RoleShade}, nil),
		phys("other.water-main-open-when-home", catOther,
			"The main water valve should not be closed while people are at home with no leak",
			"G !(anyone_home && !leak_detected && water_main_closed)",
			[]string{RoleWaterMain}, []string{"presenceSensor"}),
	}
}
