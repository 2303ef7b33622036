package checker

import "bytes"

// sequentialDFS is the default strategy: a single-goroutine iterative
// depth-first search that threads the counter-example trail through the
// DFS stack. Exploration order, trails, and table outputs are fully
// deterministic given the system's Expand order — which is also what
// makes the search checkpointable: the WAL spills the stack as one
// next-index per frame, and resume rebuilds the identical stack by
// re-expanding along those indices (see wal.go for the durability
// contract).
type sequentialDFS struct{}

// dfsFrame is one stack frame of the iterative DFS. The invariant the
// checkpoint format leans on: for every non-top frame i, the child
// frame i+1 holds succs[next-1].Next.
type dfsFrame struct {
	state State
	succs []Transition
	next  int
}

func (s sequentialDFS) search(e *engine) {
	var trail []TrailStep
	bufp := getBuf()
	defer putBuf(bufp)
	buf := *bufp
	defer func() { *bufp = buf }()

	var stack []dfsFrame
	if e.wal != nil && e.wal.resumeCk != nil {
		stack, trail, buf = resumeDFS(e, buf)
	}
	if stack == nil {
		init, _ := e.visitInitial()
		if e.limitHit() {
			e.truncated.Store(true)
			return
		}
		var succs []Transition
		succs, buf = e.expand(init, buf, true)
		stack = []dfsFrame{{state: init, succs: succs}}
	}

	for len(stack) > 0 {
		if e.wal != nil {
			// Loop top is the one point where the stack invariant holds
			// for every frame, so it is the only checkpoint site.
			buf = e.wal.maybeCheckpoint(e, stack, buf)
		}
		if e.limitHit() {
			e.truncated.Store(true)
			break
		}
		top := &stack[len(stack)-1]
		if top.next >= len(top.succs) || len(stack) > e.opts.MaxDepth {
			if len(stack) > e.opts.MaxDepth {
				e.truncated.Store(true)
				if e.rec != nil {
					// Depth-clipped successors were cloned but never
					// digested or recorded anywhere — hand them back.
					for i := top.next; i < len(top.succs); i++ {
						e.rec.Recycle(top.succs[i].Next)
						top.succs[i].Next = nil
					}
				}
			}
			if e.rec != nil {
				// The popped frame's state is dead: fully expanded, out of
				// the trail window, and recorded trails materialized their
				// replays before this point.
				e.rec.Recycle(top.state)
				top.state = nil
				if e.trec != nil {
					// Every succs entry was explored (child frames pop
					// first), matched, or clipped above; trail steps copy
					// Label/Steps out, so the array is reusable.
					e.trec.RecycleTransitions(top.succs)
					top.succs = nil
				}
			}
			stack = stack[:len(stack)-1]
			if len(trail) > 0 {
				trail = trail[:len(trail)-1]
			}
			continue
		}
		tr := top.succs[top.next]
		top.next++

		trail = append(trail, TrailStep{Label: tr.Label, Steps: tr.Steps, From: top.state, Key: tr.Key})
		e.noteDepth(len(stack))
		// Transition-scoped violations belong to this arrival, so they
		// are recorded before dedup; the state's invariants are checked
		// once, below, when the state is first stored.
		if e.recordAll(tr.Violations, trail) {
			e.truncated.Store(true)
			break
		}

		var d digest
		d, buf = e.digest(tr.Next, buf)
		if e.st.seen(d) {
			e.matched.Add(1)
			trail = trail[:len(trail)-1]
			if e.rec != nil {
				// A duplicate child never enters the stack, the trail, or
				// a recorded violation — its storage is immediately
				// reusable. Duplicates are the bulk of the clones on
				// diamond-heavy state spaces, so this is where the state
				// free-list pays.
				e.rec.Recycle(tr.Next)
				top.succs[top.next-1].Next = nil
			}
			continue
		}
		e.logVisit(d)
		e.explored.Add(1)
		// A state's first arrival is the one that stores it, so the
		// trail here is the first-arrival path.
		if e.recordAll(e.sys.Inspect(tr.Next), trail) {
			e.truncated.Store(true)
			break
		}
		var succs []Transition
		succs, buf = e.expand(tr.Next, buf, true)
		stack = append(stack, dfsFrame{state: tr.Next, succs: succs})
	}
}

// resumeDFS rebuilds a checkpointed search. The rebuild is pure —
// deterministic re-expansion from the initial state touches neither
// the visited store nor the counters — so a failed integrity check can
// abandon cleanly: the WAL is reset and the caller falls through to a
// fresh search. Only after every frame verifies does the commit phase
// replay the logged visits into the store and restore counters and
// violations.
func resumeDFS(e *engine, buf []byte) ([]dfsFrame, []TrailStep, []byte) {
	w := e.wal
	ck := w.resumeCk
	abandon := func() ([]dfsFrame, []TrailStep, []byte) {
		w.reset(walFingerprint(e.opts))
		return nil, nil, buf
	}
	if len(ck.Frames) == 0 {
		return abandon()
	}

	// Phase 1: rebuild and verify. Each frame's recorded delta must
	// reproduce the re-expanded child's encoding byte for byte —
	// checking both that the model still generates the same graph and
	// that the block codec round-trips.
	init := e.sys.Initial()
	var enc, scratch []byte
	enc = init.Encode(enc)
	if !ck.Frames[0].Full || !bytes.Equal(enc, ck.Frames[0].Delta) {
		return abandon()
	}
	var succs []Transition
	succs, buf = e.expand(init, buf, false)
	stack := make([]dfsFrame, 0, len(ck.Frames))
	stack = append(stack, dfsFrame{state: init, succs: succs, next: ck.Frames[0].Next})
	var trail []TrailStep
	for i := 1; i < len(ck.Frames); i++ {
		parent := &stack[i-1]
		idx := parent.next - 1
		if idx < 0 || idx >= len(parent.succs) {
			return abandon()
		}
		tr := parent.succs[idx]
		fr := ck.Frames[i]
		enc = tr.Next.Encode(enc[:0])
		if fr.Full {
			if !bytes.Equal(enc, fr.Delta) {
				return abandon()
			}
		} else {
			if e.delta == nil {
				return abandon()
			}
			recon, err := e.delta.DeltaApply(parent.state, fr.Delta, scratch[:0])
			if err != nil || !bytes.Equal(recon, enc) {
				return abandon()
			}
			scratch = recon
		}
		trail = append(trail, TrailStep{Label: tr.Label, Steps: tr.Steps, From: parent.state, Key: tr.Key})
		succs, buf = e.expand(tr.Next, buf, false)
		stack = append(stack, dfsFrame{state: tr.Next, succs: succs, next: fr.Next})
	}

	// Phase 2: commit. Replaying the visit log rebuilds the visited
	// store exactly as it stood at the checkpoint (for the tiered store
	// the replay re-runs admission, so spill pressure re-forms
	// naturally); counters and the violation set are restored verbatim.
	for _, d := range w.resumeVisits {
		e.st.seen(d)
	}
	e.explored.Store(ck.Explored)
	e.matched.Store(ck.Matched)
	e.maxDepth.Store(ck.MaxDepth)
	e.porChoices.Store(ck.PORChoices)
	e.porPruned.Store(ck.PORPruned)
	e.porFallback.Store(ck.PORFallback)
	e.faultTrs.Store(ck.FaultTrs)
	for _, v := range ck.Violations {
		f := Found{
			Violation: Violation{Property: v.Property, Detail: v.Detail},
			Depth:     v.Depth,
		}
		for _, st := range v.Trail {
			steps := st.Steps
			if steps == nil {
				steps = []string{}
			}
			f.Trail = append(f.Trail, TrailStep{Label: st.Label, Steps: steps})
		}
		e.found = append(e.found, f)
		e.distinct[f.Violation] = true
	}
	e.reserved = len(e.found)
	e.violCount.Store(int64(len(e.found)))

	w.lastCkptExplored = ck.Explored
	w.resumed = true
	w.resumeCk, w.resumeVisits = nil, nil
	return stack, trail, buf
}
