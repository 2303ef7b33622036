package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"iotsan/internal/checker"
)

// modelCounters accumulate the model layer's work as the checker sees it
// through a timedSystem. The parallel strategies call the system from
// several goroutines, so every field is atomic.
type modelCounters struct {
	expandNs, expandCalls, successors atomic.Int64
	inspectNs, inspectCalls           atomic.Int64
	digestRawNs, digestCalls          atomic.Int64
	digestPairNs, digestFoldNs        atomic.Int64
	reduceNs, reduceCalls             atomic.Int64
	recycleCalls                      atomic.Int64
}

// busy is the model layer's total time inside the checker's calls.
func (c *modelCounters) busy() time.Duration {
	return time.Duration(c.expandNs.Load() + c.inspectNs.Load() + c.reduceNs.Load() +
		c.digestRawNs.Load() + c.digestPairNs.Load() + c.digestFoldNs.Load())
}

// flatCanonMaxOrbit mirrors the model's threshold: symmetry tables whose
// largest orbit has at most this many devices digest canonically through
// the flat encoder, larger ones through the cached-hash fold.
const flatCanonMaxOrbit = 2

// timedSystem wraps the model's checker.System, timing Expand, Inspect,
// IncrementalDigest and Reduce. It forwards every optional interface the
// checker type-asserts, so the wrapped search is the bare search: a
// dropped forward would silently change it (without Reducer, POR is off).
type timedSystem struct {
	inner checker.System
	rp    checker.Replayer
	rd    checker.Reducer
	pc    checker.ProgressCertifier
	ce    checker.CanonicalEncoder
	hs    interface{ HasSymmetry() bool }
	id    checker.IncrementalDigester
	rec   checker.StateRecycler
	trec  checker.TransitionRecycler
	dc    checker.DeltaCodec

	sym  bool // the model has non-trivial orbits
	fold bool // canonical digests take the fold path
	c    *modelCounters
}

// newTimedSystem wraps sys, which must implement every optional checker
// interface (the model's adapter does). largestOrbit is the model's
// SymmetryStats().Largest.
func newTimedSystem(sys checker.System, largestOrbit int, c *modelCounters) (*timedSystem, error) {
	w := &timedSystem{inner: sys, fold: largestOrbit > flatCanonMaxOrbit, c: c}
	var has [9]bool
	w.rp, has[0] = sys.(checker.Replayer)
	w.rd, has[1] = sys.(checker.Reducer)
	w.pc, has[2] = sys.(checker.ProgressCertifier)
	w.ce, has[3] = sys.(checker.CanonicalEncoder)
	w.hs, has[4] = sys.(interface{ HasSymmetry() bool })
	w.id, has[5] = sys.(checker.IncrementalDigester)
	w.rec, has[6] = sys.(checker.StateRecycler)
	w.trec, has[7] = sys.(checker.TransitionRecycler)
	w.dc, has[8] = sys.(checker.DeltaCodec)
	names := [...]string{"Replayer", "Reducer", "ProgressCertifier", "CanonicalEncoder",
		"HasSymmetry", "IncrementalDigester", "StateRecycler", "TransitionRecycler", "DeltaCodec"}
	for i, ok := range has {
		if !ok {
			return nil, fmt.Errorf("%T does not implement %s, so the wrapper cannot forward it", sys, names[i])
		}
	}
	w.sym = w.hs.HasSymmetry()
	return w, nil
}

func (w *timedSystem) Initial() checker.State { return w.inner.Initial() }

func (w *timedSystem) Expand(s checker.State) []checker.Transition {
	t := time.Now()
	trs := w.inner.Expand(s)
	w.c.expandNs.Add(int64(time.Since(t)))
	w.c.expandCalls.Add(1)
	w.c.successors.Add(int64(len(trs)))
	return trs
}

func (w *timedSystem) Inspect(s checker.State) []checker.Violation {
	t := time.Now()
	vs := w.inner.Inspect(s)
	w.c.inspectNs.Add(int64(time.Since(t)))
	w.c.inspectCalls.Add(1)
	return vs
}

func (w *timedSystem) Replay(from checker.State, key uint64) (string, []string, checker.State) {
	return w.rp.Replay(from, key)
}

func (w *timedSystem) Reduce(s checker.State, trs []checker.Transition) []int {
	t := time.Now()
	keep := w.rd.Reduce(s, trs)
	w.c.reduceNs.Add(int64(time.Since(t)))
	w.c.reduceCalls.Add(1)
	return keep
}

func (w *timedSystem) CertifiesProgress() bool { return w.pc.CertifiesProgress() }

func (w *timedSystem) CanonicalEncode(s checker.State, buf []byte) []byte {
	return w.ce.CanonicalEncode(s, buf)
}

func (w *timedSystem) HasSymmetry() bool { return w.sym }

func (w *timedSystem) IncrementalDigest(s checker.State, canonical bool) (uint64, uint64) {
	t := time.Now()
	h1, h2 := w.id.IncrementalDigest(s, canonical)
	d := int64(time.Since(t))
	switch {
	case !canonical || !w.sym:
		w.c.digestRawNs.Add(d)
	case w.fold:
		w.c.digestFoldNs.Add(d)
	default:
		w.c.digestPairNs.Add(d)
	}
	w.c.digestCalls.Add(1)
	return h1, h2
}

func (w *timedSystem) HasIncremental() bool { return w.id.HasIncremental() }

// Recycle forwards a dead state to the model's free-list.
//
//iotsan:retires s
func (w *timedSystem) Recycle(s checker.State) {
	w.c.recycleCalls.Add(1)
	w.rec.Recycle(s)
}

// RecycleTransitions forwards a consumed successor slice.
//
//iotsan:retires trs
func (w *timedSystem) RecycleTransitions(trs []checker.Transition) {
	w.trec.RecycleTransitions(trs)
}

func (w *timedSystem) DeltaEncode(child, parent checker.State, buf []byte) []byte {
	return w.dc.DeltaEncode(child, parent, buf)
}

func (w *timedSystem) DeltaApply(parent checker.State, delta []byte, buf []byte) ([]byte, error) {
	return w.dc.DeltaApply(parent, delta, buf)
}
