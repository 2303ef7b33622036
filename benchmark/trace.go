package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/depgraph"
	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// span is one timed call into a layer. Spans of one Analyze call share
// Call; Parent is the enclosing span (0 for the call's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Call   int    `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotals accumulate the front-end and checker layers over every
// replayed call.
type layerTotals struct {
	parse, translate, handlers, depgraph time.Duration
	compile, modelNew, run, engineSelf   time.Duration
	sources, parsedBytes                 int64
	relatedSets, invariants              int64
	stored, matched                      int64
	porChoices, porPruned                int64
}

// tracer replays Analyze stage by stage, keeping spans in memory and the
// model layer's counters in a timedSystem.
type tracer struct {
	origin time.Time
	call   int
	spans  []span
	layers layerTotals
	model  modelCounters
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Call: t.call, Name: name,
		Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	return time.Duration(s.End - s.Start)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayResult is what the replay equivalence guard compares with the
// Report of the untraced Analyze call on the same input.
type replayResult struct {
	sets     [][]string
	explored []int
	matched  []int
	verdict  verdict
}

func reportShape(name string, rep *iotsan.Report) replayResult {
	r := replayResult{verdict: verdictOf(name, rep)}
	for _, g := range rep.Groups {
		r.sets = append(r.sets, g.Apps)
		r.explored = append(r.explored, g.Result.StatesExplored)
		r.matched = append(r.matched, g.Result.StatesMatched)
	}
	return r
}

func (r replayResult) equal(o replayResult) bool {
	return slices.EqualFunc(r.sets, o.sets, slices.Equal[[]string]) &&
		slices.Equal(r.explored, o.explored) && slices.Equal(r.matched, o.matched) &&
		r.verdict.equal(o.verdict)
}

// withDefaults mirrors iotsan.Options' defaults for the fields the
// replay reads.
func withDefaults(o iotsan.Options) iotsan.Options {
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

// replay runs the Analyze pipeline on one input through the layers'
// exported functions, timing each stage. It supports the options the
// workloads use: no property filter, no stores other than the default,
// groups verified one after another.
func (t *tracer) replay(in input, opts iotsan.Options) (replayResult, error) {
	opts = withDefaults(opts)
	t.call++
	root := t.start("iotsan.Analyze", 0)
	defer t.end(root)
	if err := in.sys.Validate(); err != nil {
		return replayResult{}, err
	}

	names := make([]string, 0, len(in.sources))
	for name := range in.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	apps := map[string]*ir.App{}
	for _, name := range names {
		app, err := t.translate(in.sources[name], root)
		if err != nil {
			return replayResult{}, err
		}
		apps[name] = app
	}

	sp := t.start("smartapp.AnalyzeHandlers", root)
	var handlers []smartapp.HandlerInfo
	var handlerApp []string
	for _, inst := range in.sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			handlerApp = append(handlerApp, inst.App)
			handlers = append(handlers, hi)
		}
	}
	t.layers.handlers += t.end(sp)

	sp = t.start("depgraph", root)
	depgraph.Scale(handlers)
	groups := relatedAppGroups(in.sys, handlers, handlerApp, opts.NoDepGraph)
	t.layers.depgraph += t.end(sp)
	t.layers.relatedSets += int64(len(groups))

	res := replayResult{verdict: verdict{Input: in.name, Violations: []string{}}}
	seen := map[string]bool{}
	for _, g := range groups {
		sub := subSystem(in.sys, g)
		r, err := t.verifyGroup(sub, apps, opts, root)
		if err != nil {
			return replayResult{}, err
		}
		var appNames []string
		for _, inst := range sub.Apps {
			appNames = append(appNames, inst.App)
		}
		res.sets = append(res.sets, appNames)
		res.explored = append(res.explored, r.StatesExplored)
		res.matched = append(res.matched, r.StatesMatched)
		res.verdict.States += r.StatesExplored
		for _, f := range r.Violations {
			key := f.Property + ": " + f.Detail
			if f.Property != model.PropExecError && !seen[key] {
				seen[key] = true
				res.verdict.Violations = append(res.verdict.Violations, key)
			}
		}
	}
	sort.Strings(res.verdict.Violations)
	return res, nil
}

// translate times smartapp.Translate and, separately, the
// groovy.ParseScript it starts with; the translate layer's time is the
// difference. The two calls alternate in order from one source to the
// next, so the second one's warm caches do not favour either layer.
func (t *tracer) translate(src string, parent int) (*ir.App, error) {
	var app *ir.App
	var parse, translate time.Duration
	var perr, terr error
	timeParse := func() {
		sp := t.start("groovy.ParseScript", parent)
		_, perr = groovy.ParseScript(src)
		parse = t.end(sp)
	}
	timeTranslate := func() {
		sp := t.start("smartapp.Translate", parent)
		app, terr = smartapp.Translate(src)
		translate = t.end(sp)
	}
	if t.layers.sources%2 == 0 {
		timeParse()
		timeTranslate()
	} else {
		timeTranslate()
		timeParse()
	}
	if perr != nil {
		return nil, perr
	}
	if terr != nil {
		return nil, terr
	}
	t.layers.sources++
	t.layers.parse += parse
	t.layers.translate += translate - parse
	t.layers.parsedBytes += int64(len(src))
	return app, nil
}

// verifyGroup is Analyze's per-related-set stage: compile invariants,
// build the model with the options Analyze derives, and search it
// through a timedSystem.
func (t *tracer) verifyGroup(sub *config.System, apps map[string]*ir.App, opts iotsan.Options, parent int) (*checker.Result, error) {
	group := t.start("related-set", parent)
	defer t.end(group)
	m, copts, err := t.buildGroup(sub, apps, opts, group)
	if err != nil {
		return nil, err
	}
	sys, err := newTimedSystem(m.System(), m.SymmetryStats().Largest, &t.model)
	if err != nil {
		return nil, err
	}
	workers := 1
	if copts.Strategy != checker.StrategyDFS {
		workers = copts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	busy := t.model.busy()
	sp := t.start("checker.Run", group)
	res := checker.Run(sys, copts)
	run := t.end(sp)
	t.layers.run += run
	// Worker time inside Run not spent in the model: store, frontier,
	// trail and, on the parallel path, stealing and idle spin.
	t.layers.engineSelf += run*time.Duration(workers) - (t.model.busy() - busy)
	t.layers.stored += int64(res.StatesStored)
	t.layers.matched += int64(res.StatesMatched)
	t.layers.porChoices += int64(res.PORChoicePoints)
	t.layers.porPruned += int64(res.PORPrunedTransitions)
	return res, nil
}

// buildGroup compiles one related set's invariants and model, and
// returns them with the checker options Analyze would search it under.
func (t *tracer) buildGroup(sub *config.System, apps map[string]*ir.App, opts iotsan.Options, parent int) (*model.Model, checker.Options, error) {
	sp := t.start("props.CompileInvariants", parent)
	invs, err := props.CompileInvariants(sub, nil, opts.Thresholds)
	t.layers.compile += t.end(sp)
	if err != nil {
		return nil, checker.Options{}, err
	}
	t.layers.invariants += int64(len(invs))

	sp = t.start("model.New", parent)
	m, err := model.New(sub, apps, model.Options{
		Design:          opts.Design,
		MaxEvents:       opts.MaxEvents,
		Failures:        opts.Failures,
		Faults:          opts.Faults,
		MaxFaults:       opts.MaxFaults,
		CheckConflicts:  true,
		CheckLeakage:    true,
		CheckRobustness: opts.Failures || opts.Faults,
		Invariants:      invs,
		RelevantAttrs:   relevantAttrs(sub, apps),
		Interpreter:     opts.Interpreter,
		Symmetry:        opts.Symmetry,
		Incremental:     !opts.NoIncremental,
	})
	t.layers.modelNew += t.end(sp)
	if err != nil {
		return nil, checker.Options{}, err
	}
	return m, checker.Options{
		MaxDepth:       opts.MaxEvents + 64 + 8*opts.MaxFaults,
		MaxStates:      opts.MaxStatesPerSet,
		Deadline:       opts.Deadline,
		Strategy:       opts.Strategy,
		Workers:        opts.Workers,
		Stop:           new(atomic.Bool),
		POR:            opts.POR,
		Symmetry:       opts.Symmetry,
		NoEpochReclaim: opts.NoEpochReclaim,
	}, nil
}

// relatedAppGroups mirrors Analyze's grouping of installed apps into
// related sets.
func relatedAppGroups(sys *config.System, handlers []smartapp.HandlerInfo, handlerApp []string, noDepGraph bool) [][]string {
	if noDepGraph {
		var all []string
		for _, inst := range sys.Apps {
			all = append(all, inst.App)
		}
		return [][]string{dedupe(all)}
	}
	g := depgraph.Build(handlers)
	var groups [][]string
	seen := map[string]bool{}
	for _, rs := range g.FinalSets() {
		var names []string
		for _, i := range g.HandlerIndices(rs) {
			names = append(names, handlerApp[i])
		}
		names = dedupe(names)
		k := fmt.Sprint(names)
		if !seen[k] && len(names) > 0 {
			seen[k] = true
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
// device.
func subSystem(sys *config.System, appNames []string) *config.System {
	sub := &config.System{
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

// relevantAttrs mirrors Analyze's event-space pruning: the sensor
// attributes the installed apps subscribe to or read, those the
// applicable physical properties observe, and presence.
func relevantAttrs(sys *config.System, apps map[string]*ir.App) map[string]bool {
	attrs := map[string]bool{}
	for _, inst := range sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			for _, in := range hi.Inputs {
				attrs[in.Attr] = true
			}
		}
	}
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical || !p.Applicable(sys) {
			continue
		}
		for _, capName := range p.Capabilities {
			if c := device.CapabilityByName(capName); c != nil && c.Sensor {
				for _, a := range c.Attributes {
					attrs[a.Name] = true
				}
			}
		}
	}
	attrs["presence"] = true
	return attrs
}
