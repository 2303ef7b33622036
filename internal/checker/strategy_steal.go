package checker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workSteal is the frontier strategy: each worker owns a private
// Chase–Lev deque, pushes and pops newly stored states LIFO (locally
// depth-first), and steals the oldest entry FIFO from a victim when its
// deque runs dry. No worker ever waits at a barrier; the only global
// synchronisation is the sharded visited store and per-worker
// sent/done counters used for termination detection.
//
// Termination: each worker keeps two monotone, padded counters — sent
// (states it pushed to its deque, root included) and done (expansions
// it completed). done can never exceed sent globally: an entry is
// counted sent strictly before its push becomes visible, and whoever
// consumes it counts done only after the expansion. A worker that
// finds every deque empty sums all done counters, then all sent
// counters; monotonicity makes equality of the two sums prove that at
// the instant the done-scan finished every pushed state had been fully
// expanded — no entry exists anywhere and no expansion is in flight
// that could produce one — so the search is complete and all workers
// exit. (The scan order matters: summing sent first could observe a
// sent increment without its eventual done and miss termination, but
// never falsely detect it; summing done first can do neither.)
//
// Trails cannot be threaded through a stack here, so every newly stored
// state records a parent link in a sharded table and a violation's
// trail is reconstructed by walking the links back to the root. Each
// stored state's depth starts as the length of whichever path stored
// it first and is then lowered (CAS-min in the parent store) every
// time a shorter path re-encounters the state; a state whose depth
// improves is re-enqueued so the shorter distance propagates to its
// descendants — a relaxation pass whose expansions run with the
// matched counter suppressed, so exploration statistics stay
// identical to a run that found the minimal depths first. The
// final depth table is therefore the shortest-distance fixpoint,
// independent of exploration order: MaxDepth clips expansion at the
// same bound as DFS (states at the bound are stored but not expanded),
// and both Truncated and MaxDepthReached are computed from the final
// table after the search drains, so depth-clipped searches report
// deterministic results instead of "whichever path stored it first".
// Trails are not shortest paths: the parent links keep the first
// writer's edge, so a trail follows whichever path stored each state
// first, and may be longer than the state's minimal depth.
//
// Under a shared WorkerBudget (Options.Budget), the search starts with
// the single admission token its caller holds and grows workers
// dynamically: after an expansion leaves surplus work queued, the
// worker tries to claim a spare token and spawns a sibling. A grown
// worker that stays idle for retireAfter scavenge passes retires and
// returns its token immediately — it does not spin-hold capacity a
// sibling group could admit on — and every claimed token is released
// by the time the search ends, so budget freed by one finished group
// flows to groups that still have work.
//
// With a recycling system (StateRecycler), the steal hot path is
// allocation-free in steady state: deque entries come from per-worker
// free-lists, consumed successor slices return through
// TransitionRecycler, duplicate children are recycled where they are
// produced, and consumed, fully expanded states are retired through
// the epoch-based reclamation layer (reclaim.go) so a reference
// briefly held by a concurrent steal attempt can never observe
// recycled backing storage.
type workSteal struct {
	workers int
}

// stealEntry is one state awaiting expansion; its digest keys the
// parent-link table, which also carries the state's (minimal known)
// depth — entries deliberately do not cache the depth, so a pop always
// expands at the freshest distance. Entry objects are pooled per
// worker: the Chase–Lev top-CAS guarantees exactly-once consumption,
// so the consumer owns the entry outright and recycles it into its own
// free-list (a thief that loaded a stale entry pointer loses the CAS
// and never dereferences it).
type stealEntry struct {
	state State
	d     digest
}

// parentEdge is the incoming parent-link edge of a stored state. For
// lazy-trail systems, steps stays nil and key carries the replay
// handle instead: the edge then costs one word plus a (shared) label
// string, and the step strings are only produced — by replaying
// forward from the root state — if a trail through this edge is
// materialized. No per-edge state is retained.
//
// depth is the minimal known depth of the state: the depth of
// whichever path stored the state first, lowered through relax
// whenever a shorter path re-encounters the state, so the final depths
// are the order-independent shortest-distance fixpoint.
// expanded marks states whose counted expansion has been claimed; it
// arbitrates between the one expansion that contributes to the
// explored/matched counters and the depth-relaxation re-expansions
// that only propagate improved depths.
// provisional marks an entry created by relax before the storing
// worker's put landed: the visited store admits a state (seen) strictly
// before its parent edge is recorded, so a shorter path can re-encounter
// the state inside that window. The depth-only provisional entry
// preserves the improvement; put then merges the real edge into it.
type parentEdge struct {
	parent      uint64 // h1 of the predecessor state (rootHash for the root)
	label       string
	steps       []string
	key         uint64
	depth       int32
	expanded    bool
	provisional bool
}

// parentShards stripes the parent-link table; writes happen once per
// stored state, reads only during trail reconstruction.
const parentShards = 64

type parentStore struct {
	root         uint64
	rootState    State // initial state: forward replay of lazy trails starts here
	rootExpanded atomic.Bool
	shards       [parentShards]struct {
		mu sync.Mutex
		m  map[uint64]parentEdge
	}
}

func newParentStore(root uint64, rootState State) *parentStore {
	p := &parentStore{root: root, rootState: rootState}
	for i := range p.shards {
		p.shards[i].m = make(map[uint64]parentEdge)
	}
	return p
}

func (p *parentStore) put(h uint64, edge parentEdge) {
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	if ex, ok := sh.m[h]; !ok { // first writer wins: keep the parent tree acyclic
		sh.m[h] = edge
	} else if ex.provisional {
		// A relax raced into the seen→put window and left a depth-only
		// placeholder: merge the real edge in, keeping the minimum depth
		// (and the expanded claim, if a re-enqueued copy already ran).
		if ex.depth < edge.depth {
			edge.depth = ex.depth
		}
		edge.expanded = ex.expanded
		sh.m[h] = edge
	}
	sh.mu.Unlock()
}

func (p *parentStore) get(h uint64) (parentEdge, bool) {
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	sh.mu.Unlock()
	return e, ok
}

// relax lowers the recorded depth of h to depth if that improves it —
// the CAS-min of the deterministic depth clipping. It reports whether
// the depth improved; a caller seeing an improvement re-enqueues the
// state so the shorter distance propagates to its descendants (and so
// a state first stored at the depth bound becomes expandable once a
// shorter path reaches it).
func (p *parentStore) relax(h uint64, depth int32) bool {
	if h == p.root {
		return false // the root's depth 0 cannot improve
	}
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	if !ok {
		// The storing worker admitted h to the visited store but its
		// put has not landed yet. Record the depth provisionally so the
		// improvement cannot be lost to the race; no re-enqueue is
		// needed — the storing worker enqueues the state right after
		// its put, and that pop reads the merged (minimal) depth.
		sh.m[h] = parentEdge{depth: depth, provisional: true}
		sh.mu.Unlock()
		return false
	}
	improved := depth < e.depth
	if improved {
		e.depth = depth
		sh.m[h] = e
	}
	sh.mu.Unlock()
	return improved
}

// claimExpansion reads h's minimal depth and — unless the depth sits at
// or beyond bound, where the state must stay unexpanded so a later
// relaxation below the bound can still claim it — marks the counted
// expansion as claimed, all under one shard lock (this runs once per
// pop on the hot path). counted reports whether this caller won
// the claim: exactly one expansion of each state contributes to the
// explored/matched counters; later re-expansions (depth relaxation)
// run with counting suppressed.
func (p *parentStore) claimExpansion(h uint64, bound int32) (depth int32, counted bool) {
	if h == p.root {
		return 0, p.rootExpanded.CompareAndSwap(false, true)
	}
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	if !ok {
		sh.mu.Unlock()
		return 0, false
	}
	depth = e.depth
	if depth < bound && !e.expanded {
		e.expanded = true
		sh.m[h] = e
		counted = true
	}
	sh.mu.Unlock()
	return depth, counted
}

// scan walks the final depth table after the search drains, returning
// the deepest stored state's minimal depth and whether any state sits
// at or beyond the bound (stored but never expanded — the deterministic
// truncation signal: the minimal-depth fixpoint does not depend on the
// order in which paths reached each state).
func (p *parentStore) scan(bound int32) (maxDepth int32, clipped bool) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.depth > maxDepth {
				maxDepth = e.depth
			}
			if e.depth >= bound {
				clipped = true
			}
		}
		sh.mu.Unlock()
	}
	return maxDepth, clipped
}

// trailTo reconstructs the trail from the root to the state with hash h
// by walking parent links. maxLen bounds the walk against hash-collision
// cycles. When the walk reaches the root, the first step carries the
// initial state so lazy steps can be materialized by forward replay.
func (p *parentStore) trailTo(h uint64, maxLen int) []TrailStep {
	var rev []TrailStep
	for h != p.root && len(rev) <= maxLen {
		e, ok := p.get(h)
		if !ok {
			break
		}
		rev = append(rev, TrailStep{Label: e.label, Steps: e.steps, Key: e.key})
		h = e.parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) > 0 && h == p.root {
		rev[0].From = p.rootState
	}
	return rev
}

// wsCounters is one worker slot's termination-detection pair. Written
// (plain atomic stores — the owner is the only writer) by the slot's
// worker, scanned by any worker checking quiescence; padded so
// neighbouring slots never false-share. Ownership follows the deque
// index through retire/respawn handoff, and the counters survive it:
// they are monotone for the slot, not the goroutine.
//
//iotsan:padded
type wsCounters struct {
	sent atomic.Int64 // states pushed to this slot's deque (root included)
	done atomic.Int64 // expansions completed by this slot's owner
	_    [48]byte
}

// wsEntryPool is one worker slot's stealEntry free-list, owner-only;
// padded so the slice headers of neighbouring slots never false-share.
//
//iotsan:padded
type wsEntryPool struct {
	free []*stealEntry
	_    [40]byte
}

// stealRun is the shared state of one work-stealing search.
type stealRun struct {
	e       *engine
	parents *parentStore
	deques  []*wsDeque
	cnts    []wsCounters
	pools   []wsEntryPool
	// reclaim is the epoch-based reclamation layer, nil when the system
	// does not recycle or Options.NoEpochReclaim is set.
	reclaim *reclaimer
	// relaxOff disables depth relaxation. Relaxation re-expands
	// states, which must replay exactly the transitions the counted
	// expansion explored. With an uncertified POR reducer the engine's
	// visited-state proviso makes expansion store-dependent — a replay
	// could diverge from the counted graph — so relaxation is disabled
	// there (clipping then keeps the first-path semantics for that
	// combination only). Certified reducers are pure functions of the
	// state and replay identically. Symmetry reduction disables
	// relaxation for the same reason in a different guise: a duplicate
	// hit is then only *isomorphic* to the stored representative, not
	// byte-identical, so re-expanding the duplicate raw state would
	// record parent edges and trail steps whose replay keys do not
	// stitch onto the representative's chain — counter-examples would
	// stop being concrete executions.
	relaxOff bool
	live     atomic.Int32 // workers currently running (crew-size check)
	nextIdx  atomic.Int32 // monotonic worker-index allocator
	max      int
	wg       sync.WaitGroup

	// freeMu guards freeIdx, the deque indices of retired workers. A
	// retiring worker publishes its index here strictly after its last
	// deque operation and its reclaim offline, so a replacement spawned
	// under the same index never shares ownership with it.
	freeMu  sync.Mutex
	freeIdx []int
}

func (s *workSteal) search(e *engine) {
	max := s.workers
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}

	init, d0 := e.visitInitial()
	if e.limitHit() {
		e.truncated.Store(true)
		return
	}

	r := &stealRun{
		e:        e,
		parents:  newParentStore(d0.h1, init),
		deques:   make([]*wsDeque, max),
		cnts:     make([]wsCounters, max),
		pools:    make([]wsEntryPool, max),
		relaxOff: (e.reducer != nil && !e.certified) || e.canon != nil,
		max:      max,
	}
	for i := range r.deques {
		r.deques[i] = newWSDeque()
	}
	if e.frontierRecycle {
		r.reclaim = newReclaimer(e.rec, max, e.spillFn())
	}
	r.cnts[0].sent.Store(1)
	r.deques[0].push(&stealEntry{state: init, d: d0})

	if e.opts.Budget == nil {
		// Fixed crew: all workers up front.
		r.live.Store(int32(max))
		r.nextIdx.Store(int32(max))
		for w := 0; w < max; w++ {
			r.spawn(w, false)
		}
	} else {
		// Worker 0 rides the admission token the caller already holds;
		// the rest are claimed dynamically from the shared budget.
		r.live.Store(1)
		r.nextIdx.Store(1)
		r.spawn(0, false)
	}
	r.wg.Wait()
	if r.reclaim != nil {
		// No worker holds any frontier reference anymore: whatever the
		// grace periods kept in limbo goes back to the free-lists now.
		r.reclaim.drainAll()
	}
	// Clipping and the reported depth come from the final depth table —
	// the shortest-distance fixpoint — not from per-path bookkeeping, so
	// depth-clipped searches are deterministic across runs and worker
	// counts.
	maxd, clipped := r.parents.scan(int32(e.opts.MaxDepth))
	if clipped {
		e.truncated.Store(true)
	}
	e.maxDepth.Store(int64(maxd))
}

// spawn starts worker w. ownsToken marks workers holding a
// dynamically claimed budget token, which they release on exit.
func (r *stealRun) spawn(w int, ownsToken bool) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if ownsToken {
			defer r.e.opts.Budget.Release()
		}
		r.work(w, ownsToken)
	}()
}

// quiescent reports whether every pushed state has been fully expanded.
// The done counters are summed strictly before the sent counters: both
// are monotone and done can never lead sent, so done-sum == sent-sum
// proves global quiescence at the instant the done-scan finished
// (a sent-first order could only delay detection, a done-first order
// can neither miss nor falsely detect it).
func (r *stealRun) quiescent() bool {
	var done int64
	for i := range r.cnts {
		done += r.cnts[i].done.Load()
	}
	var sent int64
	for i := range r.cnts {
		sent += r.cnts[i].sent.Load()
	}
	return sent == done
}

// approxPending is a racy estimate of states pushed but not yet
// expanded, for the grow heuristic only.
func (r *stealRun) approxPending() int64 {
	var n int64
	for i := range r.cnts {
		n += r.cnts[i].sent.Load() - r.cnts[i].done.Load()
	}
	return n
}

// maybeGrow claims one spare budget token and spawns an extra worker
// when queued work exceeds the crew that could be expanding it.
func (r *stealRun) maybeGrow() {
	if r.e.opts.Budget == nil {
		return
	}
	for {
		l := r.live.Load()
		if int(l) >= r.max || r.approxPending() <= int64(l)+1 {
			return
		}
		if !r.e.opts.Budget.TryAcquire() {
			return
		}
		if !r.live.CompareAndSwap(l, l+1) {
			// Lost the crew-count race; return the token and re-evaluate.
			r.e.opts.Budget.Release()
			continue
		}
		// Allocate a deque index: prefer one freed by a retired worker,
		// else a fresh slot.
		idx := -1
		r.freeMu.Lock()
		if n := len(r.freeIdx); n > 0 {
			idx = r.freeIdx[n-1]
			r.freeIdx = r.freeIdx[:n-1]
		}
		r.freeMu.Unlock()
		if idx < 0 {
			if fresh := int(r.nextIdx.Add(1)) - 1; fresh < r.max {
				idx = fresh
			} else {
				r.nextIdx.Add(-1)
			}
		}
		if idx < 0 {
			// Concurrent grows transiently exhausted the index space;
			// undo and let a later surplus try again.
			r.live.Add(-1)
			r.e.opts.Budget.Release()
			return
		}
		r.spawn(idx, true)
		return
	}
}

// retireAfter is the number of consecutive futile scavenge passes (own
// deque empty, nothing stealable) after which a dynamically grown
// worker retires and returns its token to the shared budget, instead
// of spin-holding capacity a sibling group's admission could use.
const retireAfter = 128

// Futile-scavenge backoff: a worker that cannot retire (fixed crew or
// admission worker) sleeps between scavenge passes once the futile
// streak passes retireAfter, starting short — the tail is often one
// in-flight expansion away from ending — and doubling up to a cap so a
// long convergence tail neither burns a core nor oversleeps the wakeup.
const (
	scavengeSleepBase = 2 * time.Microsecond
	scavengeSleepMax  = 256 * time.Microsecond
)

// getEntry draws a deque entry from worker w's free-list. Owner-only.
func (r *stealRun) getEntry(w int, st State, d digest) *stealEntry {
	p := &r.pools[w]
	if n := len(p.free); n > 0 {
		ent := p.free[n-1]
		p.free = p.free[:n-1]
		ent.state, ent.d = st, d
		return ent
	}
	return &stealEntry{state: st, d: d}
}

// putEntry recycles a consumed entry into worker w's free-list. Safe
// immediately after consumption: the top-CAS arbitration guarantees no
// other worker will ever dereference this entry object again (a stale
// pointer to it can still be loaded from a ring slot, but its holder's
// CAS is doomed). Owner-only.
//
//iotsan:retires ent
func (r *stealRun) putEntry(w int, ent *stealEntry) {
	ent.state = nil
	r.pools[w].free = append(r.pools[w].free, ent)
}

// wsCtx is one worker's expansion context.
type wsCtx struct {
	r     *stealRun
	w     int
	sc    *statCell
	sent  int64  // running mirror of cnts[w].sent
	epoch uint64 // epoch pinned before the current entry was consumed
}

// pushState counts and enqueues one newly stored state. The sent store
// strictly precedes the push becoming stealable, which is what keeps
// the done-sum ≤ sent-sum termination invariant.
func (c *wsCtx) pushState(st State, d digest) {
	c.sent++
	c.r.cnts[c.w].sent.Store(c.sent)
	c.r.deques[c.w].push(c.r.getEntry(c.w, st, d))
}

// work is one worker's main loop: drain the own deque LIFO, steal FIFO
// when dry, exit on global termination or a hit limit. ownsToken
// workers additionally retire when persistently idle.
func (r *stealRun) work(w int, ownsToken bool) {
	e := r.e
	bufp := getBuf()
	defer putBuf(bufp)
	buf := *bufp
	defer func() { *bufp = buf }()

	var sc statCell
	defer sc.flush(e)

	c := &wsCtx{r: r, w: w, sc: &sc, sent: r.cnts[w].sent.Load()}
	done := r.cnts[w].done.Load()
	if r.reclaim != nil {
		r.reclaim.online(w)
	}
	offline := func() {
		if r.reclaim != nil {
			r.reclaim.offline(w)
		}
	}

	// Victim scan order: a per-worker xorshift sequence so idle workers
	// spread their steal attempts instead of convoying on worker 0.
	rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d

	idle := 0
	sleep := scavengeSleepBase
	for {
		if e.truncated.Load() {
			offline()
			return // another worker hit a limit; abandon the search
		}
		if r.reclaim != nil {
			// Quiescent point: no frontier references are held here.
			c.epoch = r.reclaim.pin(w)
			r.reclaim.tryAdvance()
		}
		ent := r.deques[w].pop()
		if ent == nil {
			ent = r.stealFrom(w, &rng)
		}
		if ent == nil {
			if r.quiescent() {
				offline()
				return // every pushed state fully expanded: search done
			}
			idle++
			if idle >= retireAfter {
				if ownsToken {
					// Retire: go offline first, then publish the deque
					// index (after the last deque touch above) so a
					// future grow can reuse the slot without sharing it;
					// the spawn wrapper releases the token.
					offline()
					r.freeMu.Lock()
					r.freeIdx = append(r.freeIdx, w)
					r.freeMu.Unlock()
					r.live.Add(-1)
					return
				}
				// Fixed-crew and admission workers cannot retire (the
				// search needs at least one worker alive), but a long
				// futile streak means the tail is one in-flight
				// expansion elsewhere — back off with doubling sleeps
				// instead of burning a core on Gosched spins.
				time.Sleep(sleep)
				if sleep < scavengeSleepMax {
					sleep *= 2
				}
				continue
			}
			runtime.Gosched()
			continue
		}
		idle, sleep = 0, scavengeSleepBase
		// Consult the limits before every expansion (the engine contract:
		// after every explored state, not once per violation) — Stop
		// cancellation and Deadline must interrupt even a convergence
		// tail where expansions store nothing new.
		if e.limitHit() {
			e.truncated.Store(true)
			offline()
			return
		}
		buf = r.expand(ent, c, buf)
		done++
		r.cnts[w].done.Store(done)
		r.maybeGrow()
	}
}

// stealFrom makes one randomized pass over the other workers' deques,
// returning the first entry successfully stolen.
func (r *stealRun) stealFrom(w int, rng *uint64) *stealEntry {
	n := len(r.deques)
	if n == 1 {
		return nil
	}
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	start := int(*rng % uint64(n))
	for i := 0; i < n; i++ {
		v := start + i
		if v >= n {
			v -= n
		}
		if v == w {
			continue
		}
		for {
			ent, retry := r.deques[v].steal()
			if ent != nil {
				return ent
			}
			if !retry {
				break // observed empty; next victim
			}
		}
	}
	return nil
}

// retireState hands a consumed, fully expanded state to the
// reclamation layer together with its digest — the spill candidate the
// tiered store evicts in epoch order (the root is exempt: trail replay
// starts from it).
//
//iotsan:retires st
func (r *stealRun) retireState(w int, epoch uint64, st State, d digest) {
	if r.reclaim == nil || st == r.parents.rootState {
		return
	}
	r.reclaim.retire(w, epoch, st, d)
}

// expand processes one entry, pushing newly stored successors onto the
// worker's own deque. The parent store's expanded claim arbitrates so
// exactly one expansion of each state contributes to the counters, and
// depth-relaxation passes run count-suppressed. The consumed entry
// object returns to the worker's free-list, and the consumed state is
// retired under the worker's pinned epoch unless a limit truncated the
// expansion (unconsumed successors then keep it conservative).
func (r *stealRun) expand(ent *stealEntry, c *wsCtx, buf []byte) []byte {
	e := r.e
	depth, count := r.parents.claimExpansion(ent.d.h1, int32(e.opts.MaxDepth))
	if int(depth) >= e.opts.MaxDepth {
		// States at the depth bound exist but are not expanded — the
		// same truncation point as DFS. Clipping is not a global abort:
		// shallower entries still queued elsewhere continue to be
		// expanded, and the final depth scan marks the result truncated
		// once the search drains (unless a shorter path later relaxes
		// this state below the bound and re-enqueues it — via the
		// duplicate clone that path produced, never this one, so this
		// clone has left every live structure and can retire).
		st, d := ent.state, ent.d
		r.putEntry(c.w, ent)
		r.retireState(c.w, c.epoch, st, d)
		return buf
	}
	buf, ok := r.expandState(c, ent.state, ent.d.h1, depth+1, buf, count)
	if ok {
		r.retireState(c.w, c.epoch, ent.state, ent.d)
	}
	r.putEntry(c.w, ent)
	return buf
}

// expandState expands state (fingerprint h1): it records every
// successor's transition violations, deduplicates successors through
// the visited store, and for each newly stored successor claims its
// explored slot, checks its state invariants, links it to its parent
// at childDepth, and pushes it onto the worker's deque. The parent
// trail prefix is reconstructed lazily, only when a violation is
// actually recorded. Expansion routes through engine.expand, so
// partial-order reduction applies exactly as it does to DFS.
//
// count suppresses the matched counter when false: depth-relaxation
// re-expansions must not perturb the deterministic exploration
// statistics. A duplicate successor whose depth improves is re-enqueued
// so the shorter distance propagates (unless relaxation is off); other
// duplicates were produced by this expansion, shared with nobody, and
// are recycled on the spot — on diamond-heavy state spaces they are the
// bulk of the clones, the same place the DFS free-list pays. It returns
// the (possibly grown) encode buffer and false when a limit was hit
// (truncated is already set; the caller must not recycle the expanded
// state or its successor slice — unconsumed entries keep them
// conservative).
func (r *stealRun) expandState(c *wsCtx, state State, h1 uint64, childDepth int32, buf []byte, count bool) ([]byte, bool) {
	e := r.e
	var prefix []TrailStep // parent trail, reconstructed lazily
	havePrefix := false
	record := func(v Violation, tr *Transition) bool {
		// Reserve before constructing anything: on violation-dense
		// state spaces nearly every hit is a duplicate, and the trail
		// walk + copy for a rejected violation is wasted allocation.
		if !e.reserve(v) {
			return false
		}
		if !havePrefix {
			prefix = r.parents.trailTo(h1, e.opts.MaxDepth)
			havePrefix = true
		}
		trail := append(append([]TrailStep(nil), prefix...),
			TrailStep{Label: tr.Label, Steps: tr.Steps, From: state, Key: tr.Key})
		e.commit(v, trail)
		return true
	}
	// recordAll records vs against tr, reporting (with truncated set)
	// whether a recorded violation hit a search limit.
	recordAll := func(vs []Violation, tr *Transition) bool {
		for _, v := range vs {
			if record(v, tr) && e.limitHit() {
				e.truncated.Store(true)
				return true
			}
		}
		return false
	}

	var trs []Transition
	trs, buf = e.expand(state, buf, count)
	for i := range trs {
		tr := &trs[i]
		// Transition-scoped violations belong to this arrival and are
		// recorded before dedup; state invariants wait for the store.
		if recordAll(tr.Violations, tr) {
			return buf, false
		}

		var d digest
		d, buf = e.digest(tr.Next, buf)
		if e.st.seen(d) {
			if count {
				c.sc.matched++
			}
			if !r.relaxOff && r.parents.relax(d.h1, childDepth) {
				c.pushState(tr.Next, d)
			} else if e.frontierRecycle {
				// A duplicate child that was not re-enqueued never
				// entered a deque, the parent table, or a recorded
				// trail (record materializes eagerly): nobody but this
				// worker has ever seen the clone.
				e.rec.Recycle(tr.Next)
				tr.Next = nil
			}
			continue
		}
		if !count {
			// A depth-relaxation re-expansion stored this state while
			// the parent's counted expansion (already claimed, possibly
			// running on another worker) has yet to reach it; that
			// expansion will meet the state as a duplicate, so uncount
			// the match here to keep StatesMatched equal to DFS's.
			c.sc.matched--
		}
		// Newly stored: claim its explored slot, then check its
		// invariants — once per stored state, never per arrival.
		if !c.sc.reserveExplored(e) {
			e.truncated.Store(true)
			return buf, false
		}
		if recordAll(e.sys.Inspect(tr.Next), tr) {
			return buf, false
		}
		r.parents.put(d.h1, parentEdge{parent: h1, label: tr.Label, steps: tr.Steps, key: tr.Key, depth: childDepth})
		c.pushState(tr.Next, d)
		if e.limitHit() {
			e.truncated.Store(true)
			return buf, false
		}
	}
	if e.frontierRecycle && e.trec != nil {
		// Every entry was enqueued (its state copied into a deque
		// entry), recycled above, or pruned inside engine.expand — the
		// backing array itself is reusable, as on the DFS pop path.
		e.trec.RecycleTransitions(trs)
	}
	return buf, true
}
