// Engine flag wiring shared by the CLIs. cmd/iotsan and
// cmd/iotsan-bench expose the same checker-engine surface (-strategy,
// -workers, -group-parallel, -por, -symmetry); declaring it here once
// keeps the two front-ends from drifting as reductions and engines are
// added.
package config

import (
	"errors"
	"flag"

	"iotsan/internal/checker"
)

// Engine is the resolved checker-engine configuration selected on a
// command line.
type Engine struct {
	Strategy      checker.StrategyKind
	Workers       int
	GroupParallel bool
	POR           bool
	Symmetry      bool
	Failures      bool
	Faults        bool
	MaxFaults     int
	Store         checker.StoreKind
	StoreDir      string
	MemBudget     int64
	Checkpoint    bool
	Resume        bool
}

// EngineFlags holds the registered (unparsed) engine flags; call
// Engine after flag.Parse to resolve them.
type EngineFlags struct {
	strategy      *string
	workers       *int
	groupParallel *bool
	por           *bool
	symmetry      *bool
	failures      *bool
	faults        *bool
	maxFaults     *int
	store         *string
	storeDir      *string
	memBudget     *int64
	checkpoint    *bool
	resume        *bool
}

// RegisterEngineFlags declares the shared engine flags on a flag set
// (pass flag.CommandLine for a CLI's global flags).
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	return &EngineFlags{
		strategy: fs.String("strategy", "dfs",
			"checker search strategy: dfs (sequential) or steal (parallel work-stealing)"),
		workers: fs.Int("workers", 0,
			"checker goroutines for -strategy steal and the -group-parallel budget (0 = GOMAXPROCS)"),
		groupParallel: fs.Bool("group-parallel", false,
			"verify independent related sets concurrently under one shared worker budget"),
		por: fs.Bool("por", false,
			"partial-order reduction: prune equivalent handler interleavings (concurrent design)"),
		symmetry: fs.Bool("symmetry", false,
			"symmetry reduction: fold states related by permutations of interchangeable devices"),
		failures: fs.Bool("failures", false,
			"enumerate transient device/communication failure modes per command"),
		faults: fs.Bool("faults", false,
			"persistent fault injection: device outages, delayed/dropped commands, stale reads"),
		maxFaults: fs.Int("max-faults", 1,
			"budget of fault transitions per path with -faults (outages and drops each cost one; 0 keeps the fault layer inert)"),
		store: fs.String("store", "exhaustive",
			"visited-state store: exhaustive (in-memory hash-compact), bitstate (supertrace bit array), or tiered (out-of-core: memory-budgeted hot tier spilling to file-backed filter + disk hash tiers; requires -store-dir)"),
		storeDir: fs.String("store-dir", "",
			"scratch directory for -store tiered (per-group tier files and the checkpoint WAL)"),
		memBudget: fs.Int64("mem-budget", 0,
			"approximate resident bytes of hot-tier fingerprints per related set with -store tiered (0 = 64 MiB)"),
		checkpoint: fs.Bool("checkpoint", false,
			"write-ahead checkpoint the search to <store-dir>/*/wal.log (tiered store, sequential DFS); a killed run can continue with -resume"),
		resume: fs.Bool("resume", false,
			"resume each related set from its last durable checkpoint in -store-dir (falls back to a fresh search when no intact checkpoint exists)"),
	}
}

// Engine resolves the parsed flags into an engine configuration.
func (f *EngineFlags) Engine() (Engine, error) {
	strat, err := checker.ParseStrategy(*f.strategy)
	if err != nil {
		return Engine{}, err
	}
	store, err := checker.ParseStore(*f.store)
	if err != nil {
		return Engine{}, err
	}
	if store == checker.Tiered && *f.storeDir == "" {
		return Engine{}, errors.New("config: -store tiered requires -store-dir")
	}
	if (*f.checkpoint || *f.resume) && *f.storeDir == "" {
		return Engine{}, errors.New("config: -checkpoint/-resume require -store-dir")
	}
	return Engine{
		Strategy:      strat,
		Workers:       *f.workers,
		GroupParallel: *f.groupParallel,
		POR:           *f.por,
		Symmetry:      *f.symmetry,
		Failures:      *f.failures,
		Faults:        *f.faults,
		MaxFaults:     *f.maxFaults,
		Store:         store,
		StoreDir:      *f.storeDir,
		MemBudget:     *f.memBudget,
		Checkpoint:    *f.checkpoint,
		Resume:        *f.resume,
	}, nil
}
