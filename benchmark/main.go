// Command benchmark measures iotsan.Analyze end to end, "is this
// configured home safe, and how long until I know?", on three seeded
// workloads, and attributes its time to the pipeline layers in a separate
// traced run. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload deep-sequential --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"iotsan"
)

// setupReps is how many times a run generates its inputs and warms up;
// setup_s is the median.
const setupReps = 3

// spansDir is where a traced run writes its spans, inside the build
// directory run.sh creates.
const spansDir = ".bench_build/spans"

// minCalls keeps the timed phase going until the latency tail has at
// least ten calls beyond it above the median.
const minCalls = 20

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: install-check, deep-sequential or concurrent-fleet")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 replays Analyze layer by layer and reports per-layer metrics")
	writeExp := flag.String("write-expected", "", "regenerate the default seed's expected verdicts into this file and exit")
	flag.Parse()

	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (install-check, deep-sequential, concurrent-fleet), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}

	ins, setup, err := setUp(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	want, err := expectedVerdicts(w, *seed, ins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = traced(w, ins, want, dur, fmt.Sprintf("%s/%s-seed%d.jsonl", spansDir, w.name, *seed))
	} else {
		res = timed(w, ins, want, dur, setup)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setUp generates the inputs and warms up with one Analyze call,
// setupReps times, and returns the median CPU time of a repetition. The
// first repetition counts from process start.
func setUp(w workload, seed int64) ([]input, float64, error) {
	var ins []input
	var times []float64
	var start time.Duration // the process's CPU time starts at zero
	for r := 0; r < setupReps; r++ {
		var err error
		if ins, err = w.inputs(seed); err != nil {
			return nil, 0, err
		}
		if _, err := analyze(ins[0], w.opts); err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", ins[0].name, err)
		}
		now := processCPU()
		times = append(times, (now - start).Seconds())
		start = now
	}
	return ins, median(times), nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	notes  []string // human-readable lines printed before the JSON
	report report
}

func (r *result) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.report.Metrics[name] = metric{Value: value, Unit: unit}
}

// verdictCheck checks each call's verdict: against the stored expected
// verdicts for the default seed, otherwise against the first pass's
// verdict of the same input.
type verdictCheck struct {
	want []verdict
	ref  []*verdict
}

func newVerdictCheck(want []verdict, n int) *verdictCheck {
	return &verdictCheck{want: want, ref: make([]*verdict, n)}
}

func (c *verdictCheck) check(i int, in input, rep *iotsan.Report, err error) (verdict, error) {
	var got verdict
	if err == nil {
		got = verdictOf(in.name, rep)
	}
	ref := c.ref[i]
	if c.want != nil {
		ref = &c.want[i]
	}
	if err := callError(rep, err, got, ref); err != nil {
		return got, fmt.Errorf("%s: %w", in.name, err)
	}
	if c.ref[i] == nil {
		c.ref[i] = &got
	}
	return got, nil
}

// timed runs whole passes over the inputs until dur has elapsed (and at
// least minCalls calls were made), each call an untraced Analyze. Times
// are process CPU time, which leaves out the time a shared host withholds
// the CPU; the wall-clock figures are printed for reference only.
func timed(w workload, ins []input, want []verdict, dur time.Duration, setup float64) result {
	res := result{report: report{Metrics: map[string]metric{}}}
	vc := newVerdictCheck(want, len(ins))
	var cpuMs, wallMs, passCPU, passWall, passRSS []float64
	var states int
	var callCPU time.Duration
	passStates := 0
	rss := startRSSSampler()
	defer rss.close()
	rss.take()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur || len(cpuMs) < minCalls; pass++ {
		p0, t0 := processCPU(), time.Now()
		explored := 0
		for i, in := range ins {
			c0, w0 := processCPU(), time.Now()
			rep, err := analyze(in, w.opts)
			cpu := processCPU() - c0
			wallMs = append(wallMs, float64(time.Since(w0))/1e6)
			cpuMs = append(cpuMs, float64(cpu)/1e6)
			res.report.Attempted++
			got, err := vc.check(i, in, rep, err)
			if err != nil {
				res.report.Failed++
				fmt.Fprintln(os.Stderr, "benchmark: failed call:", err)
				continue
			}
			explored += got.States
			states += got.States
			callCPU += cpu
		}
		passCPU = append(passCPU, (processCPU() - p0).Seconds())
		passWall = append(passWall, time.Since(t0).Seconds())
		passRSS = append(passRSS, rss.take())
		if pass == 0 {
			passStates = explored
		}
	}
	n := len(cpuMs)
	sort.Float64s(cpuMs)
	tailRank := n - 11 // ten calls lie beyond it
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d inputs per pass, %d passes, %d calls", w.name, len(ins), len(passCPU), n),
		fmt.Sprintf("verdict_cpu_tail_ms is p%.1f of %d calls", 100*float64(tailRank+1)/float64(n), n),
		fmt.Sprintf("wall clock, for reference: pass median %.3f s, call median %.2f ms", median(passWall), median(wallMs)),
		fmt.Sprintf("pass cpu_s %.3f", passCPU),
		fmt.Sprintf("pass wall_s %.3f", passWall),
		fmt.Sprintf("pass peak_rss_mb %.1f", passRSS))

	res.report.Correct = res.report.Failed == 0
	res.set("cpu_s", median(passCPU), "s")
	res.set("verdict_cpu_p50_ms", median(cpuMs), "ms")
	res.set("verdict_cpu_tail_ms", cpuMs[tailRank], "ms")
	res.set("states_per_cpu_s", float64(states)/callCPU.Seconds(), "1/s")
	res.set("states_explored", float64(passStates), "count")
	res.set("correct_frac", float64(res.report.Attempted-res.report.Failed)/float64(res.report.Attempted), "ratio")
	res.set("setup_s", setup, "s")
	res.set("peak_rss_mb", median(passRSS), "MB")
	return res
}

// runtimeSample reads the Go runtime's cumulative allocation, GC and CPU
// counters.
type runtimeSample struct{ allocBytes, allocs, gcCycles, gcCPU, userCPU float64 }

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/user:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.userCPU - b.userCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocs + b.allocs, a.gcCycles + b.gcCycles,
		a.gcCPU + b.gcCPU, a.userCPU + b.userCPU}
}

// traced runs whole passes until dur has elapsed. Each input is analyzed
// once untraced, as the reference and for the runtime counters, and once
// replayed stage by stage; the replay must agree with the reference on
// related sets, per-set state counts and violations.
func traced(w workload, ins []input, want []verdict, dur time.Duration, spansPath string) (result, error) {
	res := result{report: report{Metrics: map[string]metric{}}}
	vc := newVerdictCheck(want, len(ins))
	t := newTracer()
	var rt runtimeSample
	var refWall, traceWall time.Duration
	var refStates float64
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start) < dur; passes++ {
		for i, in := range ins {
			res.report.Attempted++
			r0, c0 := readRuntime(), time.Now()
			rep, err := analyze(in, w.opts)
			refWall += time.Since(c0)
			rt = rt.add(readRuntime().sub(r0))
			got, err := vc.check(i, in, rep, err)
			if err == nil {
				refStates += float64(got.States)
				c0 = time.Now()
				var tr replayResult
				ref := reportShape(in.name, rep)
				if tr, err = t.replay(in, w.opts); err == nil && !tr.equal(ref) {
					err = fmt.Errorf("%s: replay differs from Analyze: sets %v, explored %v, matched %v, %d violations; want %v, %v, %v, %d",
						in.name, tr.sets, tr.explored, tr.matched, len(tr.verdict.Violations),
						ref.sets, ref.explored, ref.matched, len(ref.verdict.Violations))
				}
				traceWall += time.Since(c0)
			}
			if err != nil {
				res.report.Failed++
				fmt.Fprintln(os.Stderr, "benchmark: failed call:", err)
			}
		}
	}
	if err := t.writeSpans(spansPath); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	res.report.Correct = res.report.Failed == 0
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d inputs per pass, %d traced passes, %d spans in %s", w.name, len(ins), passes, len(t.spans), spansPath))

	p := float64(passes)
	per := func(d time.Duration) float64 { return d.Seconds() / p }
	L, M := &t.layers, &t.model
	stored := float64(L.stored)
	res.set("groovy.parse_s", per(L.parse), "s")
	res.set("groovy.bytes_per_s", float64(L.parsedBytes)/L.parse.Seconds(), "B/s")
	res.set("smartapp.translate_s", per(L.translate), "s")
	res.set("smartapp.handlers_s", per(L.handlers), "s")
	res.set("depgraph.build_s", per(L.depgraph), "s")
	res.set("depgraph.related_sets", float64(L.relatedSets)/p, "count")
	res.set("props.compile_s", per(L.compile), "s")
	res.set("props.invariants", float64(L.invariants)/p, "count")
	res.set("model.new_s", per(L.modelNew), "s")
	res.set("model.expand_s", per(time.Duration(M.expandNs.Load())), "s")
	res.set("model.expand_calls", float64(M.expandCalls.Load())/p, "count")
	res.set("model.successors", float64(M.successors.Load())/p, "count")
	res.set("model.inspect_s", per(time.Duration(M.inspectNs.Load())), "s")
	res.set("model.inspect_calls", float64(M.inspectCalls.Load())/p, "count")
	res.set("model.inspect_useful", stored/float64(M.inspectCalls.Load()), "ratio")
	res.set("model.digest_raw_s", per(time.Duration(M.digestRawNs.Load())), "s")
	res.set("model.digest_canon_s.pair", per(time.Duration(M.digestPairNs.Load())), "s")
	res.set("model.digest_canon_s.fold", per(time.Duration(M.digestFoldNs.Load())), "s")
	res.set("model.digest_calls", float64(M.digestCalls.Load())/p, "count")
	res.set("model.reduce_s", per(time.Duration(M.reduceNs.Load())), "s")
	res.set("model.recycle_calls", float64(M.recycleCalls.Load())/p, "count")
	res.set("checker.run_s", per(L.run), "s")
	res.set("checker.engine_self_s", per(L.engineSelf), "s")
	res.set("checker.states_stored", stored/p, "count")
	res.set("checker.states_matched", float64(L.matched)/p, "count")
	res.set("checker.new_ratio", stored/float64(M.digestCalls.Load()), "ratio")
	res.set("checker.por_choice_points", float64(L.porChoices)/p, "count")
	res.set("checker.por_pruned", float64(L.porPruned)/p, "count")
	res.set("runtime.alloc_bytes_per_state", rt.allocBytes/refStates, "B/state")
	res.set("runtime.allocs_per_state", rt.allocs/refStates, "1/state")
	res.set("runtime.gc_cpu_frac", rt.gcCPU/(rt.gcCPU+rt.userCPU), "ratio")
	res.set("runtime.gc_cycles", rt.gcCycles/p, "count")
	res.set("trace.overhead_s", per(traceWall-refWall), "s")
	return res, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// processCPU is the CPU time all threads of the process have used. On a
// virtual machine it leaves out time the hypervisor gave to other guests.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2
