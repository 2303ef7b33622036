package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"iotsan"
)

// defaultSeed is the seed whose verdicts are stored in expected.json.
const defaultSeed = 1

// verdict is what a user reads from one Analyze call: the distinct
// violations (property and detail, exec-errors already dropped by the
// report) and the number of states the search explored.
type verdict struct {
	Input      string   `json:"input"`
	Violations []string `json:"violations"`
	States     int      `json:"states"`
}

func verdictOf(name string, rep *iotsan.Report) verdict {
	v := verdict{Input: name, Violations: []string{}}
	for _, f := range rep.Violations {
		v.Violations = append(v.Violations, f.Property+": "+f.Detail)
	}
	sort.Strings(v.Violations)
	for _, g := range rep.Groups {
		v.States += g.Result.StatesExplored
	}
	return v
}

func (v verdict) equal(o verdict) bool {
	return v.Input == o.Input && v.States == o.States && slices.Equal(v.Violations, o.Violations)
}

// analyze runs one Analyze call and turns a panic into an error, so one
// broken call counts as failed instead of ending the run.
func analyze(in input, opts iotsan.Options) (rep *iotsan.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return iotsan.Analyze(in.sys, in.sources, opts)
}

// callError reports why a finished call cannot be trusted: an error, a
// truncated search, or a verdict that differs from the reference.
func callError(rep *iotsan.Report, err error, got verdict, want *verdict) error {
	if err != nil {
		return err
	}
	for i, g := range rep.Groups {
		if g.Result.Truncated {
			return fmt.Errorf("related set %d truncated", i)
		}
	}
	if want != nil && !got.equal(*want) {
		return fmt.Errorf("verdict differs: got %d states, %d violations; want %d states, %d violations",
			got.States, len(got.Violations), want.States, len(want.Violations))
	}
	return nil
}

// expectedFile holds the default seed's verdicts per workload, generated
// with -write-expected under DFS and the tree-walking interpreter.
//
//go:embed expected.json
var expectedFile []byte

type expectedSet struct {
	Seed      int64                `json:"seed"`
	Workloads map[string][]verdict `json:"workloads"`
}

// expectedVerdicts returns the stored verdicts for a workload's inputs,
// or nil when the seed has none stored.
func expectedVerdicts(w workload, seed int64, ins []input) ([]verdict, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var set expectedSet
	if err := json.Unmarshal(expectedFile, &set); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	want := set.Workloads[w.name]
	if set.Seed != seed || len(want) != len(ins) {
		return nil, fmt.Errorf("expected.json holds %d verdicts of seed %d for %s, the workload has %d inputs of seed %d",
			len(want), set.Seed, w.name, len(ins), seed)
	}
	return want, nil
}

// oracleOptions are the options the expected verdicts are generated
// with: the workload's own model and reductions, searched by DFS with
// handlers run by the tree-walking interpreter.
func oracleOptions(opts iotsan.Options) iotsan.Options {
	opts.Strategy = iotsan.StrategyDFS
	opts.Workers = 0
	opts.Interpreter = true
	return opts
}

// writeExpected regenerates expected.json for the default seed.
func writeExpected(path string) error {
	set := expectedSet{Seed: defaultSeed, Workloads: map[string][]verdict{}}
	for _, w := range workloads() {
		ins, err := w.inputs(defaultSeed)
		if err != nil {
			return err
		}
		for _, in := range ins {
			rep, err := analyze(in, oracleOptions(w.opts))
			v := verdict{}
			if err == nil {
				v = verdictOf(in.name, rep)
			}
			if err := callError(rep, err, v, nil); err != nil {
				return fmt.Errorf("%s %s: %w", w.name, in.name, err)
			}
			set.Workloads[w.name] = append(set.Workloads[w.name], v)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
