// Package iotsan is a from-scratch Go implementation of IotSan
// (Nguyen et al., CoNEXT 2018): a model-checking-based sanitizer that
// finds unsafe physical and cyber states in smart-home IoT systems.
//
// The pipeline mirrors the paper's architecture (Fig. 3):
//
//	sources ──Translator──▶ ir.App ──App Dependency Analyzer──▶ related sets
//	   │                                             │
//	configuration ──────────Model Generator──────────┤
//	   │                                             ▼
//	safety properties ───────────────────▶ Model Checker ──▶ Output Analyzer
//
// Analyze runs the full pipeline; the sub-packages under internal/
// expose each stage (groovy parsing, type inference, dependency
// analysis, model generation, the explicit-state checker, the property
// catalog, violation attribution, Promela emission, and the IFTTT
// front-end).
package iotsan

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"iotsan/internal/attribution"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/depgraph"
	"iotsan/internal/device"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// Re-exported types forming the public API surface.
type (
	// System is a deployment configuration (devices, apps, bindings).
	System = config.System
	// Device is one installed device.
	Device = config.Device
	// AppInstance is one installed app with its bindings.
	AppInstance = config.AppInstance
	// Binding is one configured input value.
	Binding = config.Binding
	// Violation is a detected property violation with its trail.
	Violation = checker.Found
	// AttributionReport is the Output Analyzer's verdict for an app.
	AttributionReport = attribution.Report
)

// Design selects the model's concurrency design (§8).
type Design = model.Design

// Designs.
const (
	Sequential = model.Sequential
	Concurrent = model.Concurrent
)

// Strategy selects the checker's search strategy.
type Strategy = checker.StrategyKind

// Strategies.
const (
	// StrategyDFS is the sequential depth-first search (default):
	// deterministic exploration order and trails.
	StrategyDFS = checker.StrategyDFS
	// StrategySteal is the parallel work-stealing frontier search:
	// Workers goroutines with per-worker Chase–Lev deques over a
	// sharded visited store; under GroupParallel it dynamically absorbs
	// worker budget freed by finished groups.
	StrategySteal = checker.StrategySteal
)

// ParseStrategy maps a strategy name ("dfs", "steal") to its kind.
func ParseStrategy(name string) (Strategy, error) { return checker.ParseStrategy(name) }

// StoreSelector selects the checker's visited-state store.
type StoreSelector = checker.StoreKind

// Store kinds.
const (
	// StoreExhaustive is the in-memory hash-compact store (default).
	StoreExhaustive = checker.Exhaustive
	// StoreBitstate is the fixed bit-array supertrace store.
	StoreBitstate = checker.Bitstate
	// StoreTiered is the out-of-core store: a memory-budgeted hot tier
	// spilling through a file-backed bit filter to an on-disk hash
	// tier, with optional write-ahead checkpointing. Requires
	// Options.StoreDir.
	StoreTiered = checker.Tiered
)

// ParseStore maps a store name ("exhaustive", "bitstate", "tiered") to
// its kind.
func ParseStore(name string) (StoreSelector, error) { return checker.ParseStore(name) }

// Options configure an analysis run.
type Options struct {
	// MaxEvents is the number of external events the checker injects
	// (default 3).
	MaxEvents int
	// Design selects sequential (default) or concurrent modeling.
	Design Design
	// Failures enumerates device/communication failures.
	Failures bool
	// Faults enables the persistent fault-injection environment model:
	// devices can go offline and come back, commands issued to offline
	// devices are held in flight and later delivered or silently
	// dropped, and handlers read last-reported (stale) attribute values
	// while the source device is offline. Orthogonal to Failures (which
	// models transient per-cascade actuator failure modes).
	Faults bool
	// MaxFaults bounds the number of budgeted fault transitions (device
	// outages and command drops; recovery and delivery are free) per
	// execution path. 0 with Faults set keeps the fault machinery
	// installed but inert — the state space, digests, and violations
	// are identical to a faults-off run (a CI-enforced gate).
	MaxFaults int
	// Properties selects property ids to verify (nil = the full
	// 45-property catalog).
	Properties []string
	// Thresholds parameterise numeric properties.
	Thresholds props.Thresholds
	// NoDepGraph disables related-set decomposition (ablation; the
	// whole system is checked as one group).
	NoDepGraph bool
	// Bitstate selects the bitstate (supertrace) visited store — the
	// legacy toggle, equivalent to Store == StoreBitstate.
	Bitstate bool
	// Store selects the visited-state store explicitly (the zero value
	// keeps the in-memory exhaustive store; see StoreExhaustive /
	// StoreBitstate / StoreTiered). StoreTiered requires StoreDir: each
	// related set gets its own subdirectory of tier files, so groups can
	// verify concurrently under GroupParallel.
	Store StoreSelector
	// StoreDir is the scratch/WAL directory for StoreTiered (and for
	// Checkpoint/Resume). Created if missing.
	StoreDir string
	// MemBudget bounds the tiered store's resident hot-tier fingerprint
	// bytes per related set (0 = 64 MiB).
	MemBudget int64
	// Checkpoint write-ahead logs the search so a killed run can
	// Resume from the last durable checkpoint. Effective on the
	// sequential DFS with StoreTiered.
	Checkpoint bool
	// Resume continues each related set from its last intact checkpoint
	// under StoreDir; corrupt, missing, or configuration-mismatched WALs
	// fall back to a fresh search.
	Resume bool
	// Strategy selects the checker search strategy (StrategyDFS
	// default; StrategySteal uses Workers goroutines).
	Strategy Strategy
	// Workers is the number of checker goroutines for StrategySteal
	// (0 = GOMAXPROCS). With GroupParallel it also
	// sizes the worker budget shared by all concurrently running
	// related-set verifications.
	Workers int
	// POR enables partial-order reduction in the checker: at each
	// expansion the concurrent design's pending-dispatch interleavings
	// are pruned to a persistent subset of provably independent handler
	// dispatches (computed from the compile-time read/write sets of the
	// handlers, seeded by the dependency graph's overlap/conflict
	// predicates). The distinct-violation set is preserved exactly — a
	// CI gate enforces it on the whole corpus — while the explored state
	// space shrinks with the number of independent pending handlers.
	// The sequential design is unaffected (its transitions are
	// property-visible external events, which are never reducible).
	POR bool
	// Symmetry enables symmetry reduction over interchangeable devices:
	// the model computes device orbits (sets of command-free sensor
	// devices with identical schema, initial state, association role,
	// subscription structure, and binding positions, observed only by
	// apps whose compile-time footprints carry no device-identity or
	// list-order-sensitive uses) and the checker keys its
	// visited store on a canonical encoding that folds states related by
	// within-orbit permutations into one representative. The
	// distinct-violation set is preserved exactly — a CI gate enforces it
	// on the whole corpus for both strategies — while the explored
	// state space shrinks with the number of interchangeable devices.
	// Composes multiplicatively with POR (reduction happens on the same
	// canonical store the POR proviso probes), with StrategySteal, and
	// with GroupParallel. Trails still replay on the raw model: frontier
	// states and parent-link replay keys stay concrete.
	Symmetry bool
	// GroupParallel verifies independent related sets concurrently
	// under one shared worker budget of Workers tokens instead of
	// strictly one after another. Per-group results and the deduped
	// violation list are still committed in deterministic group order.
	GroupParallel bool
	// MaxViolations stops the whole analysis once that many distinct
	// violations have been committed to the report (0 = collect all).
	// The cap is enforced when a group's results are committed (in
	// group order), so the reported violations are exact; reaching it
	// cancels sibling group verifications, whose GroupResult entries
	// then reflect the partial exploration at cancellation.
	MaxViolations int
	// MaxStatesPerSet caps exploration per related set (0 = 1e6).
	MaxStatesPerSet int
	// Deadline caps wall-clock time per related set.
	Deadline time.Duration
	// Interpreter runs handlers under the tree-walking interpreter
	// instead of the closure-compiled programs (the differential-testing
	// oracle; observationally identical, several times slower).
	Interpreter bool
	// NoIncremental disables the incremental block-hash state digest
	// (states then re-encode the full vector per digest). The zero
	// value keeps incremental digests ON; the flag is the flat-digest
	// oracle of the walk-equivalence gates.
	NoIncremental bool
	// NoEpochReclaim disables state recycling on StrategySteal (dead
	// duplicate children recycled in place; consumed, fully expanded
	// frontier states retired through the per-worker epoch-based
	// reclamation layer). The zero value keeps reclamation ON; the flag
	// is the allocate-per-state oracle of the recycle-equivalence
	// gates. Sequential DFS free-lists are unaffected.
	NoEpochReclaim bool
}

func (o Options) withDefaults() Options {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 3
	}
	if o.MaxStatesPerSet <= 0 {
		o.MaxStatesPerSet = 1_000_000
	}
	if o.Thresholds == (props.Thresholds{}) {
		o.Thresholds = props.DefaultThresholds()
	}
	return o
}

// GroupResult is the verification result of one related set.
type GroupResult struct {
	Apps           []string
	Handlers       int
	Result         *checker.Result
	InvariantCount int
}

// Report is the outcome of a full analysis.
type Report struct {
	// Violations are the distinct violations across all related sets.
	Violations []Violation
	// Groups holds per-related-set results.
	Groups []GroupResult
	// Scale summarises the dependency-analysis reduction (Table 7a).
	Scale depgraph.ScaleStats
	// Apps maps app names to their translations (for reuse).
	Apps map[string]*ir.App
	// Elapsed is total verification time.
	Elapsed time.Duration
}

// ViolatedProperties returns the distinct violated property ids.
func (r *Report) ViolatedProperties() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range r.Violations {
		if !seen[v.Property] {
			seen[v.Property] = true
			out = append(out, v.Property)
		}
	}
	sort.Strings(out)
	return out
}

// Translate parses and translates one smart app from Groovy source.
func Translate(source string) (*ir.App, error) { return smartapp.Translate(source) }

// Analyze verifies a configured system. sources maps app names (as they
// appear in sys.Apps) to their Groovy sources.
func Analyze(sys *System, sources map[string]string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}

	apps := map[string]*ir.App{}
	for name, src := range sources {
		app, err := smartapp.Translate(src)
		if err != nil {
			return nil, fmt.Errorf("iotsan: translating %q: %w", name, err)
		}
		apps[name] = app
	}
	for _, inst := range sys.Apps {
		if apps[inst.App] == nil {
			return nil, fmt.Errorf("iotsan: no source for installed app %q", inst.App)
		}
	}
	return analyzeTranslated(sys, apps, opts)
}

// AnalyzeTranslated verifies a system whose apps are already translated.
func AnalyzeTranslated(sys *System, apps map[string]*ir.App, opts Options) (*Report, error) {
	return analyzeTranslated(sys, apps, opts.withDefaults())
}

func analyzeTranslated(sys *System, apps map[string]*ir.App, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Apps: apps}

	// App Dependency Analyzer (§5): group installed apps into related
	// sets via their handlers' input/output events.
	var handlers []smartapp.HandlerInfo
	var handlerApp []string // handler index → installed app name
	for _, inst := range sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			handlerApp = append(handlerApp, inst.App)
			handlers = append(handlers, hi)
		}
	}
	rep.Scale = depgraph.Scale(handlers)

	groups := relatedAppGroups(sys, handlers, handlerApp, opts.NoDepGraph)
	// subSystem keeps every device and property applicability reads
	// only devices, so one compile serves every related set. The
	// invariants are pure closures (their per-state memo lives in
	// model.View), so concurrently verified groups share them.
	invs, err := props.CompileInvariants(sys, opts.Properties, opts.Thresholds)
	if err != nil {
		return nil, err
	}
	setup := &callSetup{invs: invs, sel: propertySelection(opts.Properties),
		attrs: groupAttrs(sys, groups, handlers, handlerApp)}
	if err := runGroups(rep, sys, apps, groups, setup, opts); err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// callSetup is the per-call work every related set shares, computed
// once per Analyze call; attrs[i] is group i's RelevantAttrs.
type callSetup struct {
	invs  []model.Invariant
	sel   map[string]bool
	attrs []map[string]bool
}

// runGroups is the group scheduler: it verifies every related set and
// streams results into the report in deterministic group order. With
// GroupParallel, independent groups run concurrently under one worker
// budget of Options.Workers tokens — each group's verification is
// admitted on one token (its first search worker) and the
// work-stealing strategy grows extra workers from whatever the budget
// can spare, so workers freed by finished groups are absorbed by
// groups still running. A shared stop flag cancels sibling searches as
// soon as the global MaxViolations cap is reached (or a group fails).
func runGroups(rep *Report, sys *System, apps map[string]*ir.App, groups [][]string, setup *callSetup, opts Options) error {
	stop := new(atomic.Bool)
	seen := map[violationKey]bool{}

	if !opts.GroupParallel || len(groups) <= 1 {
		for i, groupApps := range groups {
			// Once the violation cap sets the stop flag, remaining
			// verifications return immediately (truncated at the initial
			// state) but still produce a GroupResult, so Report.Groups
			// always covers every related set in order.
			gr, err := verifyGroup(subSystem(sys, groupApps), apps, setup, opts, i, stop, nil)
			if err != nil {
				return err
			}
			commitGroup(rep, gr, opts, seen, stop)
		}
		return nil
	}

	budget := checker.NewWorkerBudget(opts.Workers)
	results := make([]*GroupResult, len(groups))
	errs := make([]error, len(groups))
	done := make([]chan struct{}, len(groups))
	for i := range groups {
		done[i] = make(chan struct{})
	}
	for i, groupApps := range groups {
		go func(i int, groupApps []string) {
			defer close(done[i])
			budget.Acquire() // admission token = this group's first worker
			defer budget.Release()
			// A group admitted after the stop flag is set still runs —
			// its search stops at the initial state — so Report.Groups
			// carries one entry per related set in both scheduler modes.
			results[i], errs[i] = verifyGroup(subSystem(sys, groupApps), apps, setup, opts, i, stop, budget)
		}(i, groupApps)
	}

	// Commit completed groups strictly in group order, so the report's
	// group sequence and deduped violation list are independent of which
	// verification finished first.
	var firstErr error
	for i := range groups {
		<-done[i]
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
			stop.Store(true)
		}
		if firstErr == nil && results[i] != nil {
			commitGroup(rep, results[i], opts, seen, stop)
		}
	}
	return firstErr
}

// violationKey identifies a distinct violation in the report.
type violationKey struct{ Property, Detail string }

// commitGroup appends one group's result to the report and folds its
// violations into the deduped global list, enforcing the MaxViolations
// cap: once the cap is reached the stop flag cancels every search
// still running.
func commitGroup(rep *Report, gr *GroupResult, opts Options, seen map[violationKey]bool, stop *atomic.Bool) {
	rep.Groups = append(rep.Groups, *gr)
	for _, f := range gr.Result.Violations {
		if f.Property == model.PropExecError {
			continue
		}
		if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
			break
		}
		key := violationKey{f.Property, f.Detail}
		if !seen[key] {
			seen[key] = true
			rep.Violations = append(rep.Violations, f)
		}
	}
	if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
		stop.Store(true)
	}
}

// relatedAppGroups converts handler-level related sets into groups of
// installed app names. Graph vertices are correlated back to installed
// apps by handler index (depgraph records each handler's position in
// the slice passed to Build), so grouping can never silently drop a
// handler the way identity-keyed matching could.
func relatedAppGroups(sys *System, handlers []smartapp.HandlerInfo, handlerApp []string, noDepGraph bool) [][]string {
	if noDepGraph {
		var all []string
		for _, inst := range sys.Apps {
			all = append(all, inst.App)
		}
		return [][]string{dedupe(all)}
	}
	g := depgraph.Build(handlers)
	var groups [][]string
	seenGroups := map[string]bool{}
	for _, rs := range g.FinalSets() {
		var names []string
		for _, i := range g.HandlerIndices(rs) {
			names = append(names, handlerApp[i])
		}
		names = dedupe(names)
		// App names may contain spaces, so the key needs a separator no
		// name can hold: fmt.Sprint would make ["A B"] and ["A", "B"]
		// collide and silently drop a related set.
		k := strings.Join(names, "\x00")
		if !seenGroups[k] && len(names) > 0 {
			seenGroups[k] = true
			groups = append(groups, names)
		}
	}
	return groups
}

func dedupe(in []string) []string {
	out := slices.Clone(in)
	sort.Strings(out)
	return slices.Compact(out)
}

// subSystem restricts a configuration to the given apps, keeping every
// device (associations drive property compilation).
func subSystem(sys *System, appNames []string) *System {
	sub := &System{
		Name: sys.Name, Modes: sys.Modes, Mode: sys.Mode,
		Devices: sys.Devices, Phones: sys.Phones,
	}
	for _, inst := range sys.Apps {
		if slices.Contains(appNames, inst.App) {
			sub.Apps = append(sub.Apps, inst)
		}
	}
	return sub
}

// verifyGroup checks one related set. gidx is the set's position in
// deterministic group order; it keys the group's private tiered-store
// subdirectory, which is what makes a -resume run find the WAL the
// killed run wrote for the same group.
func verifyGroup(sub *System, apps map[string]*ir.App, setup *callSetup, opts Options, gidx int, stop *atomic.Bool, budget *checker.WorkerBudget) (*GroupResult, error) {
	sel := setup.sel
	m, err := model.New(sub, apps, model.Options{
		Design:          opts.Design,
		MaxEvents:       opts.MaxEvents,
		Failures:        opts.Failures,
		Faults:          opts.Faults,
		MaxFaults:       opts.MaxFaults,
		CheckConflicts:  sel[model.PropConflicting] || sel[model.PropRepeated],
		CheckLeakage:    sel[model.PropLeakNetwork],
		CheckRobustness: (opts.Failures || opts.Faults) && sel[model.PropRobustness],
		Invariants:      setup.invs,
		RelevantAttrs:   setup.attrs[gidx],
		Interpreter:     opts.Interpreter,
		Symmetry:        opts.Symmetry,
		Incremental:     !opts.NoIncremental,
	})
	if err != nil {
		return nil, err
	}

	// The global MaxViolations cap is deliberately NOT forwarded as the
	// per-group checker cap: the checker counts every distinct violation
	// it records, while the committed report filters exec-errors and
	// deduplicates across groups — a raw per-group cap could truncate a
	// search on violations that never reach the report. The cap is
	// enforced at commit time instead, and propagates here through the
	// shared stop flag.
	// Fault transitions extend paths beyond the event budget (an
	// outage/recovery/delivery chain can interleave between events), so
	// the depth bound grows with the fault budget.
	copts := checker.Options{
		MaxDepth:  opts.MaxEvents + 64 + 8*opts.MaxFaults,
		MaxStates: opts.MaxStatesPerSet,
		Deadline:  opts.Deadline,
		Strategy:  opts.Strategy,
		Workers:   opts.Workers,
		Stop:      stop,
		Budget:    budget,
		POR:       opts.POR,
		Symmetry:  opts.Symmetry,

		NoEpochReclaim: opts.NoEpochReclaim,
	}
	if opts.Bitstate {
		copts.Store = checker.Bitstate
	}
	if opts.Store != checker.Exhaustive {
		copts.Store = opts.Store
	}
	if copts.Store == checker.Tiered || opts.Checkpoint || opts.Resume {
		if opts.StoreDir == "" {
			return nil, fmt.Errorf("iotsan: StoreTiered/Checkpoint/Resume require Options.StoreDir")
		}
		// One subdirectory per related set: groups verify concurrently
		// under GroupParallel and must not share tier files, and the
		// per-group WAL path must be stable across runs for Resume.
		dir := filepath.Join(opts.StoreDir, fmt.Sprintf("group-%03d", gidx))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("iotsan: store directory: %w", err)
		}
		copts.StoreDir = dir
		copts.MemBudget = opts.MemBudget
		copts.Checkpoint = opts.Checkpoint
		copts.Resume = opts.Resume
	}
	res := checker.Run(m.System(), copts)

	var names []string
	handlers := 0
	for _, inst := range sub.Apps {
		names = append(names, inst.App)
		handlers += len(apps[inst.App].HandlerNames())
	}
	return &GroupResult{Apps: names, Handlers: handlers, Result: res, InvariantCount: len(setup.invs)}, nil
}

// propertySelection returns a predicate set over property ids; a nil
// selection enables everything.
func propertySelection(ids []string) map[string]bool {
	if ids == nil {
		ids = props.IDs()
	}
	sel := map[string]bool{}
	for _, id := range ids {
		sel[id] = true
	}
	return sel
}

// groupAttrs computes each related set's sensor attributes worth
// generating events for: those its apps subscribe to or read (from the
// depgraph pass's handler summaries), plus the sensed attributes of the
// devices the applicable physical properties reference, so
// missing-response violations remain reachable.
func groupAttrs(sys *System, groups [][]string, handlers []smartapp.HandlerInfo, handlerApp []string) []map[string]bool {
	// anyone_home guards most properties: presence must vary if present.
	common := map[string]bool{"presence": true}
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical || !p.Applicable(sys) {
			continue
		}
		for _, capName := range p.Capabilities {
			if c := device.CapabilityByName(capName); c != nil && c.Sensor {
				for _, a := range c.Attributes {
					common[a.Name] = true
				}
			}
		}
	}
	out := make([]map[string]bool, len(groups))
	for gi, names := range groups {
		out[gi] = maps.Clone(common)
		for i, hi := range handlers {
			if slices.Contains(names, handlerApp[i]) {
				for _, in := range hi.Inputs {
					out[gi][in.Attr] = true
				}
			}
		}
	}
	return out
}

// Attribute runs the Output Analyzer for a newly installed app (§9).
func Attribute(sys *System, newAppSource string, installedSources map[string]string, opts attribution.Options) (*AttributionReport, error) {
	newApp, err := smartapp.Translate(newAppSource)
	if err != nil {
		return nil, err
	}
	apps := map[string]*ir.App{newApp.Name: newApp}
	for name, src := range installedSources {
		a, err := smartapp.Translate(src)
		if err != nil {
			return nil, fmt.Errorf("iotsan: translating %q: %w", name, err)
		}
		apps[name] = a
	}
	return attribution.AttributeNewApp(sys, newApp, apps, opts)
}
