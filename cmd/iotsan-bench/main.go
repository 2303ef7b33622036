// Command iotsan-bench regenerates the paper's evaluation tables
// (§10-§11) and prints them side by side with the published numbers.
//
// Usage:
//
//	iotsan-bench -table 5      # Table 5: market apps, expert configs
//	iotsan-bench -table 6      # Table 6: volunteer configs
//	iotsan-bench -table 7a     # Table 7a: dependency-graph scalability
//	iotsan-bench -table 7b     # Table 7b: concurrent vs sequential
//	iotsan-bench -table 8      # Table 8: verification time vs events
//	iotsan-bench -table 9      # Table 9: IFTTT rules
//	iotsan-bench -table attribution
//	iotsan-bench -table perf   # checker throughput (states/s) record
//	iotsan-bench -table all
//
// Profiling and machine-readable performance records:
//
//	iotsan-bench -table perf -cpuprofile cpu.out -memprofile mem.out
//	iotsan-bench -table perf -json     # writes BENCH_<date>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/ifttt"
)

// main defers to realMain so the pprof writers (deferred there) always
// flush — os.Exit would skip them and truncate the profiles.
func main() { os.Exit(realMain()) }

func realMain() int {
	table := flag.String("table", "all", "table to regenerate (5, 6, 7a, 7b, 8, 9, attribution, perf, all)")
	events := flag.Int("events", 2, "external events for Tables 5/6")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	jsonOut := flag.Bool("json", false, "write the -table perf record to BENCH_<date>.json")
	engineFl := config.RegisterEngineFlags(flag.CommandLine)
	flag.Parse()

	engine, err := engineFl.Engine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	experiments.SetEngine(engine.Strategy, engine.Workers)
	experiments.SetGroupParallel(engine.GroupParallel)
	experiments.SetPOR(engine.POR)
	experiments.SetSymmetry(engine.Symmetry)
	experiments.SetFailures(engine.Failures)
	experiments.SetFaults(engine.Faults, engine.MaxFaults)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	code := 0
	run := func(name string, fn func() error) {
		if code != 0 || (*table != "all" && *table != name) {
			return
		}
		fmt.Printf("==== Table %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "table %s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Println()
	}

	run("5", func() error {
		res, err := experiments.RunTable5(*events, []int{1, 2, 3, 4, 5, 6})
		if err != nil {
			return err
		}
		names := []string{"Conflicting commands", "Repeated commands", "Unsafe physical states"}
		paper := []string{"8", "10", "20"}
		for i, row := range res.Rows {
			fmt.Printf("%-24s violations=%-4d properties=%-3d (paper: %s)\n",
				names[i], row.Violations, row.Properties, paper[i])
		}
		fmt.Printf("total: %d violations of %d properties (paper: 38 of 11)\n",
			res.TotalViolations, res.Properties)
		fmt.Printf("device/communication failures add %d properties (paper: 9)\n",
			res.FailureExtraProperties)
		return nil
	})

	run("6", func() error {
		res, err := experiments.RunTable6(*events, 7, 0)
		if err != nil {
			return err
		}
		names := []string{"Conflicting commands", "Repeated commands", "Unsafe physical states"}
		paper := []string{"19", "12", "66"}
		for i, row := range res.Rows {
			fmt.Printf("%-24s violations=%-4d properties=%-3d (paper: %s)\n",
				names[i], row.Violations, row.Properties, paper[i])
		}
		fmt.Printf("total: %d violations across %d configurations (paper: 97 in 70)\n",
			res.TotalViolations, res.Configurations)
		return nil
	})

	run("7a", func() error {
		rows, mean, err := experiments.RunTable7a()
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %-14s %-10s %s\n", "Group", "Original Size", "New Size", "Scale Ratio")
		for _, r := range rows {
			fmt.Printf("%-6d %-14d %-10d %.1f\n", r.Group, r.OriginalSize, r.NewSize, r.Ratio)
		}
		fmt.Printf("mean scale ratio: %.1f (paper: 3.4)\n", mean)
		return nil
	})

	run("7b", func() error {
		rows, err := experiments.RunTable7b([]int{1, 2, 3, 4}, 120000)
		if err != nil {
			return err
		}
		fmt.Printf("%-7s %-30s %s\n", "Events", "Concurrent", "Sequential")
		for _, r := range rows {
			conc := fmt.Sprintf("%v (%d states)", r.ConcurrentTime.Round(time.Millisecond), r.ConcurrentStates)
			if r.ConcurrentCap {
				conc += " CAP"
			}
			fmt.Printf("%-7d %-30s %v (%d states)\n", r.Events, conc,
				r.SequentialTime.Round(time.Millisecond), r.SequentialStates)
		}
		fmt.Println(`(paper: concurrent 1s / 56.5s / 139m / "forever"; sequential <= 16.3s at 7)`)
		return nil
	})

	run("8", func() error {
		rows, err := experiments.RunTable8([]int{3, 4, 5, 6, 7}, 400_000)
		if err != nil {
			return err
		}
		fmt.Printf("%-7s %-10s %s\n", "Events", "States", "Time")
		for _, r := range rows {
			note := ""
			if r.Truncated {
				note = " (capped)"
			}
			fmt.Printf("%-7d %-10d %v%s\n", r.Events, r.States, r.Elapsed.Round(time.Millisecond), note)
		}
		fmt.Println("(paper: 6.61s at 6 events growing to 23.39h at 11 — exponential)")
		return nil
	})

	run("9", func() error {
		res, err := ifttt.RunTable9(3)
		if err != nil {
			return err
		}
		fmt.Printf("violated properties (%d of 4 in the paper):\n", len(res.ViolatedProperties))
		for _, p := range res.ViolatedProperties {
			fmt.Printf("  %s\n", p)
		}
		return nil
	})

	run("perf", func() error { return runPerf(*jsonOut) })

	run("attribution", func() error {
		rows, err := experiments.RunAttribution(2)
		if err != nil {
			return err
		}
		caught, total := 0, 0
		for _, r := range rows {
			fmt.Printf("%-28s %-10s %-22s phase1=%3.0f%% phase2=%3.0f%%\n",
				r.App, r.Tag, r.Verdict, r.Ratio1*100, r.Ratio2*100)
			if r.Tag == corpus.TagMalicious {
				total++
				if r.Verdict.String() == "potentially malicious" {
					caught++
				}
			}
		}
		fmt.Printf("malicious attribution: %d/%d (paper: 9/9 at 100%% ratio)\n", caught, total)
		return nil
	})
	return code
}

// perfRecord is the machine-readable states/s record of one perf run;
// one BENCH_<date>.json per PR tracks the throughput trajectory.
type perfRecord struct {
	Date             string        `json:"date"`
	GoOS             string        `json:"goos"`
	GoArch           string        `json:"goarch"`
	CPUs             int           `json:"cpus"`
	Workload         string        `json:"workload"`
	Runs             []perfRun     `json:"runs"`
	ParityRuns       []parityRun   `json:"parity_runs,omitempty"`
	StoreRuns        []storeRun    `json:"store_runs,omitempty"`
	GroupWorkload    string        `json:"group_workload,omitempty"`
	GroupRuns        []groupRun    `json:"group_runs,omitempty"`
	PORWorkload      string        `json:"por_workload,omitempty"`
	PORRuns          []porRun      `json:"por_runs,omitempty"`
	SymmetryWorkload string        `json:"symmetry_workload,omitempty"`
	SymmetryRuns     []symmetryRun `json:"symmetry_runs,omitempty"`
	EncodeWorkload   string        `json:"encode_workload,omitempty"`
	EncodeRuns       []encodeRun   `json:"encode_runs,omitempty"`
	FaultWorkload    string        `json:"fault_workload,omitempty"`
	FaultRuns        []faultRun    `json:"fault_runs,omitempty"`
}

type perfRun struct {
	Strategy     string  `json:"strategy"`
	Workers      int     `json:"workers"`
	States       int     `json:"states"`
	Seconds      float64 `json:"seconds"`
	StatesPerSec float64 `json:"states_per_sec"`
}

// parityRun is one per-worker-parity measurement on the shared perf
// workload: sequential DFS versus the work-stealing strategy at
// workers=1 on equal work, with frontier recycling (epoch reclamation)
// on and off. Each repetition runs the three searches back to back so
// all sides sample the same machine conditions, and each side keeps its
// fastest run. ParityVsDFS is the recycling-on throughput as a fraction
// of the paired DFS throughput — 1.0 means the strategy's fixed
// per-state overhead has vanished and speedup comes purely from added
// workers.
type parityRun struct {
	Strategy              string  `json:"strategy"`
	Workers               int     `json:"workers"`
	DFSStates             int     `json:"dfs_states"`
	States                int     `json:"states"`
	StatesNoRecycle       int     `json:"states_no_recycle"`
	DFSStatesPerSec       float64 `json:"dfs_states_per_sec"`
	RecycleStatesPerSec   float64 `json:"recycle_states_per_sec"`
	NoRecycleStatesPerSec float64 `json:"no_recycle_states_per_sec"`
	ParityVsDFS           float64 `json:"parity_vs_dfs"`
}

// storeRun is one in-memory versus out-of-core measurement on the
// shared perf workload: the same complete search with the default
// exhaustive store and with the tiered store under a deliberately tiny
// memory budget, so the hot tier spills through the filter to the disk
// tier for most of the run. States must match (the tiered store keeps
// hash-compact membership semantics); the per-tier counters record how
// hard the spill path actually worked, making the throughput ratio
// self-checking — a ratio near 1.0 with zero Spilled would mean the
// budget never engaged and the row measured nothing.
type storeRun struct {
	Strategy           string  `json:"strategy"`
	MemBudgetBytes     int64   `json:"mem_budget_bytes"`
	States             int     `json:"states"`
	StatesTiered       int     `json:"states_tiered"`
	InMemStatesPerSec  float64 `json:"inmem_states_per_sec"`
	TieredStatesPerSec float64 `json:"tiered_states_per_sec"`
	TieredVsInMem      float64 `json:"tiered_vs_inmem"`
	Spilled            int64   `json:"spilled"`
	PeakResident       int64   `json:"peak_resident"`
	HotHits            int64   `json:"hot_hits"`
	DiskHits           int64   `json:"disk_hits"`
	FilterRejects      int64   `json:"filter_rejects"`
	H1Collisions       int64   `json:"h1_collisions"`
}

// groupRun is one multi-group Analyze wall-clock measurement: the same
// workload verified with sequential groups versus the concurrent group
// scheduler under the shared worker budget.
type groupRun struct {
	Mode       string  `json:"mode"` // "sequential" or "group-parallel"
	Strategy   string  `json:"strategy"`
	Workers    int     `json:"workers"`
	Groups     int     `json:"groups"`
	Violations int     `json:"violations"`
	States     int     `json:"states"`
	Seconds    float64 `json:"seconds"`
}

// porRun is one with/without partial-order-reduction measurement on
// the shared PORWorkload: the explored state counts of the complete
// searches and the reduction ratio POR achieves.
type porRun struct {
	Strategy       string  `json:"strategy"`
	StatesFull     int     `json:"states_full"`
	StatesPOR      int     `json:"states_por"`
	ReductionRatio float64 `json:"reduction_ratio"`
	ChoicePoints   int     `json:"choice_points"`
	Pruned         int     `json:"pruned_transitions"`
	SecondsFull    float64 `json:"seconds_full"`
	SecondsPOR     float64 `json:"seconds_por"`
}

// symmetryRun is one with/without-symmetry-reduction measurement on
// the shared SymmetryWorkload: explored states of the complete
// searches, the fold ratio, and — for the "steal+por" row — the
// composed POR+symmetry numbers (reductions: none / POR / symmetry /
// both).
type symmetryRun struct {
	Strategy   string  `json:"strategy"`
	POR        bool    `json:"por"`
	StatesFull int     `json:"states_full"`
	StatesSym  int     `json:"states_sym"`
	FoldRatio  float64 `json:"fold_ratio"`
	// ViolationsFull/Violations are recorded from both runs so the
	// committed artifact is self-checking: a mismatch means the fold
	// changed the violation set, which the equivalence gates forbid.
	ViolationsFull int     `json:"violations_full"`
	Violations     int     `json:"violations"`
	SecondsFull    float64 `json:"seconds_full"`
	SecondsSym     float64 `json:"seconds_sym"`
}

// encodeRun is one equal-work full-vs-incremental digest measurement:
// the identical workload and checker options run on a model with the
// block-hash cache off (every child state re-encodes and re-hashes the
// whole vector) and on (only dirtied blocks re-encode). Both searches
// are complete, so the state counts must match and the speedup is pure
// encode/hash savings.
type encodeRun struct {
	Strategy         string  `json:"strategy"`
	POR              bool    `json:"por"`
	Symmetry         bool    `json:"symmetry"`
	States           int     `json:"states"`
	SecondsFull      float64 `json:"seconds_full"`
	SecondsInc       float64 `json:"seconds_inc"`
	FullStatesPerSec float64 `json:"full_states_per_sec"`
	IncStatesPerSec  float64 `json:"inc_states_per_sec"`
	Speedup          float64 `json:"speedup"`
}

// faultRun is one faults-off/faults-on measurement pair on the shared
// FaultWorkload: the same group searched to completion without the
// persistent fault model and with it under the given budget. The
// recorded artifact is self-checking twice over: with the budget the
// off-run digests are byte-identical to faults-off (the MaxFaults=0
// gate), and FaultOnlyViolations counts violations reachable only
// through an injected outage or drop — zero here means the fault layer
// stopped finding anything the fault-free model misses.
type faultRun struct {
	Strategy            string  `json:"strategy"`
	POR                 bool    `json:"por"`
	Symmetry            bool    `json:"symmetry"`
	MaxFaults           int     `json:"max_faults"`
	StatesOff           int     `json:"states_off"`
	StatesOn            int     `json:"states_on"`
	ViolationsOff       int     `json:"violations_off"`
	ViolationsOn        int     `json:"violations_on"`
	FaultOnlyViolations int     `json:"fault_only_violations"`
	FaultTransitions    int     `json:"fault_transitions"`
	SecondsOff          float64 `json:"seconds_off"`
	SecondsOn           float64 `json:"seconds_on"`
}

// runPerf measures checker throughput on the shared
// BenchmarkParallelCheck workload (largest market group, full property
// set, 20k-state cap) and optionally writes the record to
// BENCH_<date>.json.
func runPerf(writeJSON bool) error {
	m, copts, desc, err := experiments.ParallelCheckWorkload()
	if err != nil {
		return err
	}

	rec := perfRecord{
		Date: time.Now().Format("2006-01-02"), GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		CPUs:     runtime.GOMAXPROCS(0),
		Workload: desc,
	}
	type variant struct {
		name     string
		strategy checker.StrategyKind
		workers  int
	}
	variants := []variant{
		{"dfs", checker.StrategyDFS, 0},
		{"steal", checker.StrategySteal, 1},
		{"steal", checker.StrategySteal, 2},
	}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		variants = append(variants, variant{"steal", checker.StrategySteal, n})
	}
	for _, v := range variants {
		o := copts
		o.Strategy = v.strategy
		o.Workers = v.workers
		start := time.Now()
		res := checker.Run(m.System(), o)
		sec := time.Since(start).Seconds()
		r := perfRun{Strategy: v.name, Workers: v.workers, States: res.StatesExplored,
			Seconds: sec, StatesPerSec: float64(res.StatesExplored) / sec}
		rec.Runs = append(rec.Runs, r)
		fmt.Printf("%-9s workers=%-2d states=%-6d %8.3fs  %9.0f states/s\n",
			r.Strategy, r.Workers, r.States, r.Seconds, r.StatesPerSec)
	}

	if err := runParityPerf(&rec); err != nil {
		return err
	}
	if err := runStorePerf(&rec); err != nil {
		return err
	}
	if err := runGroupPerf(&rec); err != nil {
		return err
	}
	if err := runPORPerf(&rec); err != nil {
		return err
	}
	if err := runSymmetryPerf(&rec); err != nil {
		return err
	}
	if err := runEncodePerf(&rec); err != nil {
		return err
	}
	if err := runFaultPerf(&rec); err != nil {
		return err
	}

	if writeJSON {
		path := "BENCH_" + rec.Date + ".json"
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// runParityPerf measures per-worker parity on the shared perf
// workload: the work-stealing strategy at workers=1, paired best-of-N
// against sequential DFS on equal work, with epoch reclamation on and
// off. Each repetition runs the three searches back to back so the
// ratio compares runs that interleaved on the same machine conditions.
func runParityPerf(rec *perfRecord) error {
	m, copts, desc, err := experiments.ParallelCheckWorkload()
	if err != nil {
		return err
	}
	fmt.Printf("\nper-worker parity (%s):\n", desc)

	base := copts
	base.Workers = 1
	var dfsRes, onRes, offRes *checker.Result
	var secDFS, secOn, secOff float64
	for i := 0; i < 5; i++ {
		o := base
		o.Strategy = checker.StrategyDFS
		start := time.Now()
		rd := checker.Run(m.System(), o)
		sd := time.Since(start).Seconds()
		o.Strategy = checker.StrategySteal
		start = time.Now()
		ron := checker.Run(m.System(), o)
		son := time.Since(start).Seconds()
		o.NoEpochReclaim = true
		start = time.Now()
		roff := checker.Run(m.System(), o)
		soff := time.Since(start).Seconds()
		if i == 0 || sd < secDFS {
			dfsRes, secDFS = rd, sd
		}
		if i == 0 || son < secOn {
			onRes, secOn = ron, son
		}
		if i == 0 || soff < secOff {
			offRes, secOff = roff, soff
		}
	}
	r := parityRun{
		Strategy:              checker.StrategySteal.String(),
		Workers:               1,
		DFSStates:             dfsRes.StatesExplored,
		States:                onRes.StatesExplored,
		StatesNoRecycle:       offRes.StatesExplored,
		DFSStatesPerSec:       float64(dfsRes.StatesExplored) / secDFS,
		RecycleStatesPerSec:   float64(onRes.StatesExplored) / secOn,
		NoRecycleStatesPerSec: float64(offRes.StatesExplored) / secOff,
	}
	r.ParityVsDFS = r.RecycleStatesPerSec / r.DFSStatesPerSec
	rec.ParityRuns = append(rec.ParityRuns, r)
	fmt.Printf("%-9s workers=1 dfs %9.0f states/s  recycle %9.0f states/s  no-recycle %9.0f states/s  parity=%.2fx\n",
		r.Strategy, r.DFSStatesPerSec, r.RecycleStatesPerSec, r.NoRecycleStatesPerSec, r.ParityVsDFS)
	if onRes.StatesExplored != offRes.StatesExplored {
		return fmt.Errorf("%s: recycling changed the explored state count (%d -> %d); the equivalence gates forbid this",
			r.Strategy, offRes.StatesExplored, onRes.StatesExplored)
	}
	return nil
}

// runStorePerf measures the out-of-core tiered store against the
// in-memory exhaustive store on the shared perf workload, paired
// best-of-N like the parity rows. The memory budget is set far below
// the workload's state count so eviction and the write-behind spiller
// run for most of the search — the acceptance bar for the out-of-core
// path is tiered ≥ 0.5× in-memory on the dfs row with spill engaged.
func runStorePerf(rec *perfRecord) error {
	m, copts, desc, err := experiments.ParallelCheckWorkload()
	if err != nil {
		return err
	}
	fmt.Printf("\nout-of-core store (%s):\n", desc)
	const memBudget = 1 << 16 // ~1k resident fingerprints vs a 20k-state workload
	for _, strat := range []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal} {
		dir, err := os.MkdirTemp("", "iotsan-store-bench-")
		if err != nil {
			return err
		}
		var memRes, tierRes *checker.Result
		var secMem, secTier float64
		for i := 0; i < 3; i++ {
			o := copts
			o.Strategy = strat
			if strat != checker.StrategyDFS {
				o.Workers = runtime.GOMAXPROCS(0)
			}
			start := time.Now()
			rm := checker.Run(m.System(), o)
			sm := time.Since(start).Seconds()
			o.Store = checker.Tiered
			o.StoreDir = filepath.Join(dir, fmt.Sprintf("%s-%d", strat, i))
			o.MemBudget = memBudget
			start = time.Now()
			rt := checker.Run(m.System(), o)
			st := time.Since(start).Seconds()
			if i == 0 || sm < secMem {
				memRes, secMem = rm, sm
			}
			if i == 0 || st < secTier {
				tierRes, secTier = rt, st
			}
		}
		os.RemoveAll(dir)
		r := storeRun{
			Strategy:           strat.String(),
			MemBudgetBytes:     memBudget,
			States:             memRes.StatesExplored,
			StatesTiered:       tierRes.StatesExplored,
			InMemStatesPerSec:  float64(memRes.StatesExplored) / secMem,
			TieredStatesPerSec: float64(tierRes.StatesExplored) / secTier,
			Spilled:            tierRes.Store.Spilled,
			PeakResident:       tierRes.Store.PeakResident,
			HotHits:            tierRes.Store.HotHits,
			DiskHits:           tierRes.Store.DiskHits,
			FilterRejects:      tierRes.Store.FilterRejects,
			H1Collisions:       tierRes.Store.H1Collisions,
		}
		r.TieredVsInMem = r.TieredStatesPerSec / r.InMemStatesPerSec
		rec.StoreRuns = append(rec.StoreRuns, r)
		fmt.Printf("%-9s inmem %9.0f states/s  tiered %9.0f states/s  ratio=%.2fx  spilled=%d peak=%d disk-hits=%d filter-rejects=%d\n",
			r.Strategy, r.InMemStatesPerSec, r.TieredStatesPerSec, r.TieredVsInMem,
			r.Spilled, r.PeakResident, r.DiskHits, r.FilterRejects)
		if r.States != r.StatesTiered {
			return fmt.Errorf("%s: tiered store changed the explored state count (%d -> %d); the equivalence gates forbid this",
				r.Strategy, r.States, r.StatesTiered)
		}
	}
	return nil
}

// runPORPerf measures partial-order reduction on the shared
// PORWorkload: one complete search without POR and one with it, per
// strategy, recording states before/after and the reduction ratio.
func runPORPerf(rec *perfRecord) error {
	m, copts, desc, err := experiments.PORWorkload()
	if err != nil {
		return err
	}
	rec.PORWorkload = desc
	fmt.Printf("\npartial-order reduction (%s):\n", desc)

	for _, strat := range []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal} {
		o := copts
		o.Strategy = strat
		o.Workers = 2
		start := time.Now()
		full := checker.Run(m.System(), o)
		secFull := time.Since(start).Seconds()
		o.POR = true
		start = time.Now()
		red := checker.Run(m.System(), o)
		secPOR := time.Since(start).Seconds()
		r := porRun{
			Strategy:       strat.String(),
			StatesFull:     full.StatesExplored,
			StatesPOR:      red.StatesExplored,
			ReductionRatio: 1 - float64(red.StatesExplored)/float64(full.StatesExplored),
			ChoicePoints:   red.PORChoicePoints,
			Pruned:         red.PORPrunedTransitions,
			SecondsFull:    secFull,
			SecondsPOR:     secPOR,
		}
		rec.PORRuns = append(rec.PORRuns, r)
		fmt.Printf("%-9s states %7d -> %-7d (%.1f%% reduction)  %6.3fs -> %6.3fs  choices=%d pruned=%d\n",
			r.Strategy, r.StatesFull, r.StatesPOR, r.ReductionRatio*100,
			r.SecondsFull, r.SecondsPOR, r.ChoicePoints, r.Pruned)
	}
	return nil
}

// runSymmetryPerf measures symmetry reduction on the shared
// SymmetryWorkload: one complete search without and one with the
// canonical store per row — dfs and steal without POR, plus a steal
// row with POR on in both searches, so the recorded fold ratio there
// is the *additional* reduction symmetry buys on top of POR (the
// reductions compose multiplicatively).
func runSymmetryPerf(rec *perfRecord) error {
	m, copts, desc, err := experiments.SymmetryWorkload()
	if err != nil {
		return err
	}
	rec.SymmetryWorkload = desc
	fmt.Printf("\nsymmetry reduction (%s):\n", desc)

	rows := []struct {
		strategy checker.StrategyKind
		por      bool
	}{
		{checker.StrategyDFS, false},
		{checker.StrategySteal, false},
		{checker.StrategySteal, true},
	}
	for _, row := range rows {
		o := copts
		o.Strategy = row.strategy
		o.Workers = 2
		o.POR = row.por
		start := time.Now()
		full := checker.Run(m.System(), o)
		secFull := time.Since(start).Seconds()
		o.Symmetry = true
		start = time.Now()
		sym := checker.Run(m.System(), o)
		secSym := time.Since(start).Seconds()
		r := symmetryRun{
			Strategy:       row.strategy.String(),
			POR:            row.por,
			StatesFull:     full.StatesExplored,
			StatesSym:      sym.StatesExplored,
			FoldRatio:      1 - float64(sym.StatesExplored)/float64(full.StatesExplored),
			ViolationsFull: len(full.Violations),
			Violations:     len(sym.Violations),
			SecondsFull:    secFull,
			SecondsSym:     secSym,
		}
		rec.SymmetryRuns = append(rec.SymmetryRuns, r)
		tag := r.Strategy
		if r.POR {
			tag += "+por"
		}
		fmt.Printf("%-11s states %7d -> %-7d (%.1f%% fold)  %6.3fs -> %6.3fs  violations=%d\n",
			tag, r.StatesFull, r.StatesSym, r.FoldRatio*100, r.SecondsFull, r.SecondsSym, r.Violations)
		if r.Violations != r.ViolationsFull {
			return fmt.Errorf("%s: symmetry changed the violation count (%d -> %d); the fold is unsound for this workload",
				tag, r.ViolationsFull, r.Violations)
		}
	}
	return nil
}

// runEncodePerf measures the incremental block encode + digest on
// equal work: the shared EncodeWorkload (and SymmetryEncodeWorkload
// for the canonical-path rows) built twice — cache off and cache on —
// and searched to completion with identical checker options, per
// strategy × {plain, por} plus symmetry rows. The recorded state
// counts come from both runs so the artifact is self-checking: a
// mismatch on a non-symmetry row means the incremental digest changed
// the state partition, which the equivalence gates forbid.
func runEncodePerf(rec *perfRecord) error {
	full, copts, desc, err := experiments.EncodeWorkload(false)
	if err != nil {
		return err
	}
	inc, _, _, err := experiments.EncodeWorkload(true)
	if err != nil {
		return err
	}
	symFull, symOpts, _, err := experiments.SymmetryEncodeWorkload(false)
	if err != nil {
		return err
	}
	symInc, _, _, err := experiments.SymmetryEncodeWorkload(true)
	if err != nil {
		return err
	}
	rec.EncodeWorkload = desc
	fmt.Printf("\nincremental encode+digest (%s; symmetry rows on the interchangeable-device group):\n", desc)

	// Paired best-of-N: the symmetry rows complete in tens of
	// milliseconds, where wall clocks on a shared runner swing ±40%
	// between samples and would record noise as a speedup or
	// regression. Each repetition runs the full-encode and incremental
	// searches back to back so both sides sample the same machine
	// conditions; short searches repeat (up to 40×) until a second of
	// samples accumulates, the ~1s market-group rows stay at 3
	// repetitions, and each side keeps its fastest run.
	measurePair := func(fullSys, incSys checker.System, o checker.Options) (fr, ri *checker.Result, secFull, secInc float64) {
		total := 0.0
		for i := 0; i < 40 && (i < 3 || total < 1.0); i++ {
			start := time.Now()
			rf := checker.Run(fullSys, o)
			sf := time.Since(start).Seconds()
			start = time.Now()
			rc := checker.Run(incSys, o)
			si := time.Since(start).Seconds()
			total += sf + si
			if i == 0 || sf < secFull {
				fr, secFull = rf, sf
			}
			if i == 0 || si < secInc {
				ri, secInc = rc, si
			}
		}
		return fr, ri, secFull, secInc
	}

	rows := []struct {
		strategy checker.StrategyKind
		por, sym bool
	}{
		{checker.StrategyDFS, false, false},
		{checker.StrategyDFS, true, false},
		{checker.StrategySteal, false, false},
		{checker.StrategySteal, true, false},
		{checker.StrategyDFS, false, true},
		{checker.StrategySteal, false, true},
	}
	for _, row := range rows {
		fullM, incM, o := full, inc, copts
		if row.sym {
			fullM, incM, o = symFull, symInc, symOpts
		}
		o.Strategy = row.strategy
		o.Workers = 2
		o.POR = row.por
		o.Symmetry = row.sym
		fr, ri, secFull, secInc := measurePair(fullM.System(), incM.System(), o)
		r := encodeRun{
			Strategy:         row.strategy.String(),
			POR:              row.por,
			Symmetry:         row.sym,
			States:           ri.StatesExplored,
			SecondsFull:      secFull,
			SecondsInc:       secInc,
			FullStatesPerSec: float64(fr.StatesExplored) / secFull,
			IncStatesPerSec:  float64(ri.StatesExplored) / secInc,
			Speedup:          secFull / secInc,
		}
		rec.EncodeRuns = append(rec.EncodeRuns, r)
		tag := r.Strategy
		if r.POR {
			tag += "+por"
		}
		if r.Symmetry {
			tag += "+sym"
		}
		fmt.Printf("%-11s states=%-7d full %9.0f states/s -> inc %9.0f states/s  (%.2fx)\n",
			tag, r.States, r.FullStatesPerSec, r.IncStatesPerSec, r.Speedup)
		if !row.sym && fr.StatesExplored != ri.StatesExplored {
			return fmt.Errorf("%s: incremental digest changed the explored state count (%d -> %d); the equivalence gates forbid this",
				tag, fr.StatesExplored, ri.StatesExplored)
		}
	}
	return nil
}

// runFaultPerf measures the persistent fault-injection layer on the
// shared FaultWorkload: each row searches the climate group to
// completion faults-off and faults-on (MaxFaults=2 — one outage plus
// one drop, the cheapest budget that reaches the silent-drop
// robustness violations) and records how many violations only the
// fault model reaches.
func runFaultPerf(rec *perfRecord) error {
	const maxFaults = 2
	mOff, coptsOff, _, err := experiments.FaultWorkload(false, 0)
	if err != nil {
		return err
	}
	mOn, coptsOn, desc, err := experiments.FaultWorkload(true, maxFaults)
	if err != nil {
		return err
	}
	rec.FaultWorkload = desc
	fmt.Printf("\nfault injection (%s):\n", desc)

	rows := []struct {
		strategy checker.StrategyKind
		por, sym bool
	}{
		{checker.StrategyDFS, false, false},
		{checker.StrategySteal, true, false},
		{checker.StrategySteal, true, true},
	}
	for _, row := range rows {
		off, on := coptsOff, coptsOn
		off.Strategy, on.Strategy = row.strategy, row.strategy
		off.Workers, on.Workers = 2, 2
		off.POR, on.POR = row.por, row.por
		off.Symmetry, on.Symmetry = row.sym, row.sym
		start := time.Now()
		fr := checker.Run(mOff.System(), off)
		secOff := time.Since(start).Seconds()
		start = time.Now()
		or := checker.Run(mOn.System(), on)
		secOn := time.Since(start).Seconds()
		seen := map[string]bool{}
		for _, v := range fr.Violations {
			seen[v.Property+"\x00"+v.Detail] = true
		}
		faultOnly := 0
		for _, v := range or.Violations {
			if !seen[v.Property+"\x00"+v.Detail] {
				faultOnly++
			}
		}
		r := faultRun{
			Strategy:            row.strategy.String(),
			POR:                 row.por,
			Symmetry:            row.sym,
			MaxFaults:           maxFaults,
			StatesOff:           fr.StatesExplored,
			StatesOn:            or.StatesExplored,
			ViolationsOff:       len(fr.Violations),
			ViolationsOn:        len(or.Violations),
			FaultOnlyViolations: faultOnly,
			FaultTransitions:    or.FaultTransitionsExplored,
			SecondsOff:          secOff,
			SecondsOn:           secOn,
		}
		rec.FaultRuns = append(rec.FaultRuns, r)
		tag := r.Strategy
		if r.POR {
			tag += "+por"
		}
		if r.Symmetry {
			tag += "+sym"
		}
		fmt.Printf("%-13s states %7d -> %-7d violations %d -> %-3d (fault-only %d, fault transitions %d)  %6.3fs -> %6.3fs\n",
			tag, r.StatesOff, r.StatesOn, r.ViolationsOff, r.ViolationsOn,
			r.FaultOnlyViolations, r.FaultTransitions, r.SecondsOff, r.SecondsOn)
		if r.FaultOnlyViolations == 0 {
			fmt.Printf("WARNING: %s: the fault model found no violations beyond the fault-free search — the injection layer is inert on this workload\n", tag)
		}
	}
	return nil
}

// runGroupPerf measures the multi-group Analyze wall-clock: the shared
// GroupSchedulerWorkload verified with sequential groups versus the
// concurrent group scheduler, both under the work-stealing strategy so
// a group's idle workers can absorb budget freed by finished groups.
func runGroupPerf(rec *perfRecord) error {
	sys, apps, opts, desc, err := experiments.GroupSchedulerWorkload()
	if err != nil {
		return err
	}
	rec.GroupWorkload = desc
	fmt.Printf("\nmulti-group Analyze (%s):\n", desc)

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	modes := []struct {
		name          string
		groupParallel bool
	}{
		{"sequential", false},
		{"group-parallel", true},
	}
	for _, mode := range modes {
		o := opts
		o.Strategy = checker.StrategySteal
		o.Workers = workers
		o.GroupParallel = mode.groupParallel
		start := time.Now()
		rep, err := iotsan.AnalyzeTranslated(sys, apps, o)
		if err != nil {
			return err
		}
		sec := time.Since(start).Seconds()
		states := 0
		for _, g := range rep.Groups {
			states += g.Result.StatesExplored
		}
		r := groupRun{Mode: mode.name, Strategy: "steal", Workers: workers,
			Groups: len(rep.Groups), Violations: len(rep.Violations),
			States: states, Seconds: sec}
		rec.GroupRuns = append(rec.GroupRuns, r)
		fmt.Printf("%-15s strategy=steal workers=%-2d groups=%-3d states=%-7d violations=%-4d %8.3fs\n",
			r.Mode, r.Workers, r.Groups, r.States, r.Violations, r.Seconds)
	}
	return nil
}
