package experiments

import "iotsan"

// engineStrategy/engineWorkers/engineGroupParallel route every table
// experiment through a checker engine configuration; the bench CLI sets
// them from its -strategy/-workers/-group-parallel flags. The zero
// values select the sequential DFS with sequential groups, which
// reproduces the paper's single-core Spin-style runs.
var (
	engineStrategy      iotsan.Strategy
	engineWorkers       int
	engineGroupParallel bool
	enginePOR           bool
	engineSymmetry      bool
	engineFailures      bool
	engineFaults        bool
	engineMaxFaults     int
	engineStore         iotsan.StoreSelector
	engineStoreDir      string
	engineMemBudget     int64
	engineCheckpoint    bool
	engineResume        bool
)

// SetEngine selects the checker engine used by the Run* experiments
// (workers 0 = GOMAXPROCS for the work-stealing strategy).
func SetEngine(strategy iotsan.Strategy, workers int) {
	engineStrategy = strategy
	engineWorkers = workers
}

// SetGroupParallel enables the concurrent group scheduler (related sets
// verified under one shared worker budget) for the Run* experiments.
func SetGroupParallel(on bool) { engineGroupParallel = on }

// SetPOR enables partial-order reduction for the Run* experiments.
func SetPOR(on bool) { enginePOR = on }

// SetSymmetry enables symmetry reduction over interchangeable devices
// for the Run* experiments.
func SetSymmetry(on bool) { engineSymmetry = on }

// SetFailures enables transient device/communication failure
// enumeration for the Run* experiments (additive: experiments that
// enable failures themselves, like Table 5, are unaffected).
func SetFailures(on bool) { engineFailures = on }

// SetFaults enables the persistent fault-injection environment model
// (device outages, delayed/dropped commands, stale reads) with the
// given per-path fault budget for the Run* experiments.
func SetFaults(on bool, maxFaults int) {
	engineFaults = on
	engineMaxFaults = maxFaults
}

// SetStore selects the visited-state store for the Run* experiments
// and benchmark workloads: kind, the tiered store's scratch directory,
// and its resident hot-tier byte budget (0 = default).
func SetStore(kind iotsan.StoreSelector, dir string, memBudget int64) {
	engineStore = kind
	engineStoreDir = dir
	engineMemBudget = memBudget
}

// SetCheckpoint configures write-ahead checkpointing and resume for
// the Run* experiments (sequential DFS with the tiered store).
func SetCheckpoint(checkpoint, resume bool) {
	engineCheckpoint = checkpoint
	engineResume = resume
}

// engineOptions applies the configured engine to an analysis run.
// Failure/fault modes are OR-ed in, never cleared, so experiments that
// hard-enable a mode (RunTable5's Failures) keep it regardless of the
// CLI configuration.
func engineOptions(o iotsan.Options) iotsan.Options {
	o.Strategy = engineStrategy
	o.Workers = engineWorkers
	o.GroupParallel = engineGroupParallel
	o.POR = enginePOR
	o.Symmetry = engineSymmetry
	if engineFailures {
		o.Failures = true
	}
	if engineFaults {
		o.Faults = true
		o.MaxFaults = engineMaxFaults
	}
	if engineStore != iotsan.StoreExhaustive {
		o.Store = engineStore
		o.StoreDir = engineStoreDir
		o.MemBudget = engineMemBudget
	}
	if engineCheckpoint || engineResume {
		o.StoreDir = engineStoreDir
		o.Checkpoint = engineCheckpoint
		o.Resume = engineResume
	}
	return o
}
