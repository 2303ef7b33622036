package model

import (
	"fmt"

	"iotsan/internal/checker"
	"iotsan/internal/ir"
)

// System adapts the model to the checker's transition-system interface.
//
// The adapter satisfies the checker's concurrency contract: a Model is
// immutable after New (subscriptions, the external event space, the
// device registry, and the compiled programs are all resolved at
// construction), and Expand/Inspect mutate only executor-local data and
// fresh clones of the argument state. The parallel checker strategy may
// therefore call Expand and Inspect concurrently on distinct states.
//
// The adapter also implements checker.Replayer: transitions are emitted
// in lazy-trail form (precomputed label, no step log, a replay key),
// and the micro-steps are regenerated by deterministic re-execution
// only when a counter-example trail is materialized.
func (m *Model) System() checker.System { return sysAdapter{m} }

type sysAdapter struct{ m *Model }

func (a sysAdapter) Initial() checker.State { return a.m.Initial() }

func (a sysAdapter) Expand(s checker.State) []checker.Transition {
	return a.m.Expand(s.(*State))
}

func (a sysAdapter) Inspect(s checker.State) []checker.Violation {
	return a.m.Inspect(s.(*State))
}

func (a sysAdapter) Replay(from checker.State, key uint64) (string, []string, checker.State) {
	return a.m.Replay(from.(*State), key)
}

// Reduce implements checker.Reducer: partial-order reduction over the
// concurrent design's pending-dispatch interleavings (see por.go).
func (a sysAdapter) Reduce(s checker.State, trs []checker.Transition) []int {
	return a.m.Reduce(s.(*State), trs)
}

// CanonicalEncode implements checker.CanonicalEncoder: the symmetry
// layer's orbit-folded state encoding (see symmetry.go). Without a
// symmetry table it degrades to the raw encoding, so the checker may
// hold Options.Symmetry unconditionally.
func (a sysAdapter) CanonicalEncode(s checker.State, buf []byte) []byte {
	return a.m.CanonicalEncode(s.(*State), buf)
}

// HasSymmetry reports whether the model computed any non-trivial
// device orbit — when false, CanonicalEncode is the identity and the
// checker skips the canonical path entirely.
func (a sysAdapter) HasSymmetry() bool { return a.m.sym != nil }

// IncrementalDigest implements checker.IncrementalDigester: the
// block-hash digest over the state's incremental cache (see
// incremental.go).
func (a sysAdapter) IncrementalDigest(s checker.State, canonical bool) (uint64, uint64) {
	return a.m.IncrementalDigest(s.(*State), canonical)
}

// HasIncremental reports whether states carry the block-hash cache
// (Options.Incremental) — when false, the checker keeps the flat
// encode-and-hash digest.
func (a sysAdapter) HasIncremental() bool { return a.m.Opts.Incremental }

// Recycle implements checker.StateRecycler: dead states go onto the
// free-list and Clone reuses their backing storage.
//
//iotsan:retires s
func (a sysAdapter) Recycle(s checker.State) {
	if st, ok := s.(*State); ok {
		statePool.Put(st)
	}
}

// RecycleTransitions implements checker.TransitionRecycler: consumed
// successor slices feed later Expand calls. Entries are overwritten by
// append, so only the backing array survives the handoff.
//
//iotsan:retires trs
func (a sysAdapter) RecycleTransitions(trs []checker.Transition) {
	if cap(trs) == 0 {
		return
	}
	trs = trs[:0]
	trPool.Put(&trs)
}

// CertifiesProgress implements checker.ProgressCertifier. The reducer's
// subsets consist solely of pure-local dispatches in the queue-drain
// phase. Each such dispatch strictly shrinks the pending queue (a pure
// handler enqueues nothing), EventsUsed is frozen in that phase, and by
// the spawn-threat side condition no remaining transition can enqueue a
// subset class again — so the count of subset-class pending entries is
// a well-founded measure that every subset transition decreases and no
// other transition increases. Fault transitions preserve the measure
// too: outages, recoveries, and drops enqueue nothing, and a delivery
// can only enqueue trigger-closure classes, which the reducer's
// fault-threat side condition keeps disjoint from every subset. No
// cycle of the reduced graph can traverse a subset transition, which
// discharges the engine's visited-state proviso structurally (see
// por.go).
func (a sysAdapter) CertifiesProgress() bool { return true }

// Inspect evaluates the compiled safe-physical-state invariants on a
// state (§8 "Safety Properties"). It meets the checker's contract of a
// pure function of the state's store identity: a violation is the
// invariant's static ID and description, and invariants read only the
// device attributes and mode through View, both of which the state
// encoding carries. Under symmetry every orbit is built from devices
// with identical association roles and every invariant quantifies over
// unions of orbits, so all states of an orbit report the same
// violations. The checker therefore calls it once per stored state;
// transition-scoped findings (conflicting and repeated commands,
// leakage, robustness, InspectCascade hits) travel on
// Transition.Violations instead.
func (m *Model) Inspect(s *State) []checker.Violation {
	if len(m.Opts.Invariants) == 0 {
		return nil
	}
	v := &View{M: m, S: s}
	var out []checker.Violation
	for _, inv := range m.Opts.Invariants {
		if !inv.Holds(v) {
			out = append(out, checker.Violation{Property: inv.ID, Detail: inv.Description})
		}
	}
	return out
}

// Replay keys identify a transition of a given source state: the
// external-event/failure-mode choice, a timer firing, a pending
// dispatch (concurrent design), or a fault transition. Bit 63 marks a
// valid key so the zero value stays "no key".
const (
	keyMark     = uint64(1) << 63
	keyKindPos  = 61
	keyKindFlt  = uint64(0)
	keyKindExt  = uint64(1)
	keyKindTmr  = uint64(2)
	keyKindDisp = uint64(3)
)

// Fault sub-operations, encoded in bits 59-60 of a kind-0 replay key.
// The payload (bits 0-58) is the device index for offline/online and
// the positional in-flight index for deliver/drop — positional like
// dispKey, and stable because replay re-expands from the same state.
const (
	fltOffline = 0 // device goes offline (costs 1 fault)
	fltOnline  = 1 // device comes back online, reports resync (free)
	fltDeliver = 2 // held command delivered to its now-online target (free)
	fltDrop    = 3 // held command silently dropped (costs 1 fault)
)

func extKey(evIdx int, fm failMode) uint64 {
	return keyMark | keyKindExt<<keyKindPos | uint64(evIdx)<<2 | uint64(fm)
}

func tmrKey(appIdx, methodIdx int, fm failMode) uint64 {
	return keyMark | keyKindTmr<<keyKindPos | uint64(appIdx)<<32 | uint64(methodIdx)<<2 | uint64(fm)
}

func dispKey(i int) uint64 {
	return keyMark | keyKindDisp<<keyKindPos | uint64(i)
}

func fltKey(op, idx int) uint64 {
	return keyMark | keyKindFlt<<keyKindPos | uint64(op)<<59 | uint64(idx)
}

// Replay re-executes the transition identified by key from the given
// state with step recording enabled, returning the trail label, the
// micro-steps, and the successor state (which feeds the next step of a
// forward trail replay). Execution is deterministic, so the regenerated
// steps are exactly those the eager path would have produced.
func (m *Model) Replay(s *State, key uint64) (string, []string, checker.State) {
	if key&keyMark == 0 {
		return "", nil, nil
	}
	switch key >> keyKindPos & 3 {
	case keyKindExt:
		evIdx := int(key >> 2 & (1<<59 - 1))
		fm := failMode(key & 3)
		if evIdx >= len(m.external) {
			return "", nil, nil
		}
		tr := m.applyExternal(s, m.external[evIdx], evIdx, fm, true)
		return tr.Label, tr.Steps, tr.Next
	case keyKindTmr:
		appIdx := int(key >> 32 & (1<<29 - 1))
		methodIdx := int(key >> 2 & (1<<30 - 1))
		fm := failMode(key & 3)
		if appIdx >= len(m.Apps) || methodIdx >= len(m.Apps[appIdx].methodNames) {
			return "", nil, nil
		}
		ev := ExtEvent{Kind: EvTimer, AppIdx: appIdx, Handler: m.Apps[appIdx].methodNames[methodIdx]}
		tr := m.applyTimer(s, ev, methodIdx, fm, true)
		return tr.Label, tr.Steps, tr.Next
	case keyKindDisp:
		i := int(key & (1<<61 - 1))
		if i >= len(s.Queue) {
			return "", nil, nil
		}
		tr := m.dispatchPending(s, i, true)
		return tr.Label, tr.Steps, tr.Next
	case keyKindFlt:
		op := int(key >> 59 & 3)
		idx := int(key & (1<<59 - 1))
		if op == fltOffline || op == fltOnline {
			if idx >= len(s.Devices) {
				return "", nil, nil
			}
		} else if idx >= len(s.InFlight) {
			return "", nil, nil
		}
		tr := m.applyFault(s, op, idx, true)
		return tr.Label, tr.Steps, tr.Next
	}
	return "", nil, nil
}

// Expand returns the successor transitions of a state: the
// non-deterministic choice of the next external physical event
// (Algorithm 1 line 2), crossed with failure scenarios when enabled; in
// the concurrent design, also the choice of which pending handler
// invocation to dispatch next.
func (m *Model) Expand(s *State) []checker.Transition {
	nfm := 1
	if m.Opts.Failures {
		nfm = 4
	}
	timers := 0
	for ai := range s.Apps {
		timers += len(s.Apps[ai].Timers)
	}
	var out []checker.Transition
	if v := trPool.Get(); v != nil {
		out = (*v.(*[]checker.Transition))[:0]
	} else {
		out = make([]checker.Transition, 0, len(s.Queue)+(len(m.external)+timers)*nfm)
	}

	if m.Opts.Design == Concurrent {
		// Interleaving choices: dispatch any pending handler invocation.
		for i := range s.Queue {
			out = append(out, m.dispatchPending(s, i, false))
		}
	}

	if m.Opts.Faults {
		// Fault transitions come right after the dispatches — before the
		// event-budget cutoff, so outages can still resolve (delivery or
		// drop of held commands) in the drain phase. The POR layer relies
		// on this layout: transitions 0..len(Queue)-1 are dispatches,
		// then exactly countFaultTransitions(s) fault choices.
		out = m.appendFaultTransitions(s, out)
	}

	if s.EventsUsed >= m.Opts.MaxEvents {
		return out
	}

	fms := fmNone[:]
	if m.Opts.Failures {
		fms = fmAll[:]
	}

	for evIdx, ev := range m.external {
		if ev.Kind == EvDevice {
			// Skip non-events: the generated value equals the current one.
			if s.Devices[ev.Dev].Attrs[ev.AttrIdx] == ev.Val {
				continue
			}
		}
		if ev.Kind == EvMode && s.Mode == uint8(ev.Val) {
			continue
		}
		for _, fm := range fms {
			if ev.Kind != EvDevice && (fm == failSensorOff || fm == failSensorComm) {
				continue // sensor failures apply to sensed events only
			}
			out = append(out, m.applyExternal(s, ev, evIdx, fm, false))
		}
	}

	// Scheduled timers are external choices too: they may fire at any
	// point between other events.
	for ai := range s.Apps {
		for _, t := range s.Apps[ai].Timers {
			ev := ExtEvent{Kind: EvTimer, AppIdx: ai, Handler: t.Handler}
			mi, ok := m.Apps[ai].methodIdx[t.Handler]
			if !ok {
				mi = -1
			}
			for _, fm := range fms {
				if fm == failSensorOff || fm == failSensorComm {
					continue
				}
				out = append(out, m.applyTimer(s, ev, mi, fm, false))
			}
		}
	}
	return out
}

var (
	fmNone = [1]failMode{failNone}
	fmAll  = [4]failMode{failNone, failSensorOff, failSensorComm, failActuators}
)

// appendFaultTransitions enumerates the persistent-fault choices of a
// state: any online device may go offline (budget permitting), any
// offline device may recover, and any held command may be delivered to
// its recovered target or silently dropped (budget permitting).
// countFaultTransitions must mirror this enumeration exactly — the POR
// layer uses it to recognise the dispatch/fault split of Expand's
// output.
func (m *Model) appendFaultTransitions(s *State, out []checker.Transition) []checker.Transition {
	budget := s.FaultsUsed < m.Opts.MaxFaults
	for d := range s.Devices {
		if s.Devices[d].Online {
			if budget {
				out = append(out, m.applyFault(s, fltOffline, d, false))
			}
		} else {
			out = append(out, m.applyFault(s, fltOnline, d, false))
		}
	}
	for i := range s.InFlight {
		if s.Devices[s.InFlight[i].Dev].Online {
			out = append(out, m.applyFault(s, fltDeliver, i, false))
		}
		if budget {
			out = append(out, m.applyFault(s, fltDrop, i, false))
		}
	}
	return out
}

// countFaultTransitions returns how many transitions
// appendFaultTransitions would emit for s. Zero whenever fault
// injection is off or the budget is zero with no fault in progress, so
// a MaxFaults=0 model expands exactly like a faults-off one.
func (m *Model) countFaultTransitions(s *State) int {
	if !m.Opts.Faults {
		return 0
	}
	n := 0
	budget := s.FaultsUsed < m.Opts.MaxFaults
	for d := range s.Devices {
		if s.Devices[d].Online {
			if budget {
				n++
			}
		} else {
			n++
		}
	}
	for i := range s.InFlight {
		if s.Devices[s.InFlight[i].Dev].Online {
			n++
		}
		if budget {
			n++
		}
	}
	return n
}

// applyFault executes one fault transition. Fault transitions consume
// no external-event budget and never reset the cascade command log:
// they model the environment misbehaving between platform events.
func (m *Model) applyFault(s *State, op, idx int, record bool) checker.Transition {
	ns := s.Clone()
	tr := checker.Transition{Key: fltKey(op, idx), Fault: true, Next: ns}
	switch op {
	case fltOffline:
		ns.FaultsUsed++
		ns.markHeader()
		d := &ns.Devices[idx]
		d.Online = false
		d.LastReport = ns.EventsUsed
		ns.markDevice(idx)
		tr.Label = m.faultLabels[idx][0]
		if record {
			tr.Steps = []string{tr.Label}
		}
	case fltOnline:
		d := &ns.Devices[idx]
		d.Online = true
		d.LastReport = 0
		copy(d.Reported, d.Attrs)
		ns.markDevice(idx)
		tr.Label = m.faultLabels[idx][1]
		if record {
			tr.Steps = []string{tr.Label, m.Devices[idx].Label + " reports resynchronize"}
		}
	case fltDeliver:
		rec := ns.InFlight[idx]
		ns.InFlight = append(ns.InFlight[:idx], ns.InFlight[idx+1:]...)
		ns.markCmds()
		x := m.getExec(ns, failNone, record)
		x.deliverCommand(rec)
		if m.Opts.Design == Sequential {
			x.drain()
		} else {
			x.finishCascade()
		}
		tr.Label = "fault: deliver " + m.Devices[rec.Dev].Label + "." + rec.Cmd + "()"
		tr.Violations = x.takeViolations()
		if record {
			tr.Steps = x.takeSteps()
		}
		m.putExec(x)
	case fltDrop:
		ns.FaultsUsed++
		ns.markHeader()
		rec := ns.InFlight[idx]
		ns.InFlight = append(ns.InFlight[:idx], ns.InFlight[idx+1:]...)
		ns.markCmds()
		tr.Label = "fault: drop " + m.Devices[rec.Dev].Label + "." + rec.Cmd + "()"
		if m.Opts.CheckRobustness && !rec.Notified {
			tr.Violations = []checker.Violation{{Property: PropRobustness, Detail: fmt.Sprintf(
				"%s's command %s.%s() is silently dropped during a device outage and the user is never notified",
				m.Apps[rec.App].App.Name, m.Devices[rec.Dev].Label, rec.Cmd)}}
		}
		if record {
			tr.Steps = []string{tr.Label}
		}
	}
	return tr
}

// applyExternal executes one external (non-timer) event choice,
// producing the successor state. In the sequential design the full
// cascade runs to quiescence inside this transition (Algorithm 1 lines
// 3-6). With record=false the step log is skipped; Replay re-executes
// with record=true when a trail is materialized.
func (m *Model) applyExternal(s *State, ev ExtEvent, evIdx int, fm failMode, record bool) checker.Transition {
	ns, x := m.beginTransition(s, fm, record)

	switch ev.Kind {
	case EvDevice:
		x.sensorUpdate(ev.Dev, ev.AttrIdx, ev.Val)
	case EvTouch:
		x.deliverTouch(ev.AppIdx)
	case EvSun:
		phase := "sunrise"
		if ev.Val == 1 {
			phase = "sunset"
		}
		x.enqueue(cyberEvent{Source: srcSun, Attr: "sun",
			Value: ir.StrV(phase), VStr: phase, Label: "location"})
	case EvMode:
		x.SetLocationMode(m.Cfg.Modes[ev.Val])
	}

	return m.endTransition(x, ns, ev, m.extLabels[evIdx][fm], extKey(evIdx, fm), fm, record)
}

// applyTimer executes a timer-firing choice. methodIdx may be -1 when
// the scheduled handler does not name a method; the transition then has
// no replay key and carries its steps eagerly.
func (m *Model) applyTimer(s *State, ev ExtEvent, methodIdx int, fm failMode, record bool) checker.Transition {
	var label string
	var key uint64
	if methodIdx >= 0 {
		label = m.timerLabels[ev.AppIdx][methodIdx][fm]
		key = tmrKey(ev.AppIdx, methodIdx, fm)
	} else {
		label = "timer: " + m.Apps[ev.AppIdx].App.Name + "." + ev.Handler
		if fm != failNone {
			label += " [" + fm.String() + "]"
		}
		record = true // not replayable: record eagerly
	}

	ns, x := m.beginTransition(s, fm, record)
	if removeTimer(&ns.Apps[ev.AppIdx], ev.Handler) {
		ns.markApp(ev.AppIdx)
	}
	x.fireTimer(ev.AppIdx, ev.Handler)
	return m.endTransition(x, ns, ev, label, key, fm, record)
}

// beginTransition clones the state and checks an executor out of the
// pool against the clone.
func (m *Model) beginTransition(s *State, fm failMode, record bool) (*State, *executor) {
	ns := s.Clone()
	ns.EventsUsed++
	ns.Time = int64(ns.EventsUsed) * 60
	ns.markHeader()
	if len(ns.Cmds) > 0 {
		ns.markCmds()
	}
	ns.Cmds = nil // fresh cascade: command log resets per external event
	return ns, m.getExec(ns, fm, record)
}

// endTransition drains the cascade per the design, releases the
// executor, and assembles the transition.
func (m *Model) endTransition(x *executor, ns *State, ev ExtEvent, label string, key uint64, fm failMode, record bool) checker.Transition {
	if m.Opts.Design == Sequential {
		x.drain()
	} else if ev.Kind != EvDevice || fm != failSensorOff {
		x.finishCascade()
	}

	tr := checker.Transition{Label: label, Key: key, Next: ns, Violations: x.takeViolations()}
	if record {
		tr.Steps = x.takeSteps()
	}
	m.putExec(x)
	return tr
}

// deliverTouch routes an app-touch event to the app's touch handlers.
func (x *executor) deliverTouch(appIdx int) {
	ev := cyberEvent{Source: srcApp, Attr: "touch",
		Value: ir.StrV("touched"), VStr: "touched", Label: "app"}
	for _, si := range x.m.touchIdx[appIdx] {
		sub := x.m.subs[si]
		if x.s.Apps[sub.AppIdx].Unsubscribed {
			continue
		}
		if x.m.Opts.Design == Concurrent {
			x.s.Queue = append(x.s.Queue, Pending{SubIdx: int(si), Source: srcApp, Raw: "touched"})
			x.s.markQueue()
			continue
		}
		x.runHandler(sub, ev)
	}
}

// removeTimer splices handler's pending timer out of as.Timers,
// reporting whether one was found. The //iotsan:writes annotation
// shifts the markApp obligation to the call sites (which only need the
// mark when the splice actually happened, and all mark accordingly).
//
//iotsan:writes app
func removeTimer(as *AppState, handler string) bool {
	for i := range as.Timers {
		if as.Timers[i].Handler == handler {
			as.Timers = append(as.Timers[:i], as.Timers[i+1:]...)
			return true
		}
	}
	return false
}

// dispatchPending runs one queued handler invocation (concurrent design:
// handler-level interleaving, §8 "Concurrency Model"). The label is
// assembled eagerly from precomputed halves — trails must keep their
// labels even when a broken replay chain degrades their steps.
func (m *Model) dispatchPending(s *State, i int, record bool) checker.Transition {
	ns := s.Clone()
	p := ns.Queue[i]
	ns.Queue = append(ns.Queue[:i], ns.Queue[i+1:]...)
	ns.markQueue()

	sub := m.subs[p.SubIdx]
	x := m.getExec(ns, failNone, record)
	ev := m.pendingEvent(p)
	x.runHandler(sub, ev)
	x.noteInFlight()

	tr := checker.Transition{
		Label: m.dispPre[p.SubIdx] + ev.VStr + m.dispPost[p.SubIdx],
		Key:   dispKey(i), Next: ns, Violations: x.takeViolations(),
	}
	if record {
		tr.Steps = x.takeSteps()
	}
	m.putExec(x)
	return tr
}

// pendingEvent reconstructs the cyber event payload of a queued
// invocation.
func (m *Model) pendingEvent(p Pending) cyberEvent {
	ev := cyberEvent{Source: p.Source, VStr: p.Raw, Label: "event"}
	sub := m.subs[p.SubIdx]
	ev.Attr = sub.Attr
	if p.Source >= 0 {
		d := m.Devices[p.Source]
		ev.Label = d.Label
		if ai := d.AttrIndex(sub.Attr); ai >= 0 && d.Attrs[ai].Numeric {
			ev.Value = ir.IntV(int64(p.Val))
			return ev
		}
	}
	ev.Value = ir.StrV(p.Raw)
	return ev
}
