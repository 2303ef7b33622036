package checker

import (
	"sync"
	"sync/atomic"
)

// digest is the 128-bit fingerprint of an encoded state vector: two
// independent 64-bit hashes. h1 keys the exhaustive store and the
// parent-link table; bitstate probes are derived from both by double
// hashing, so the k probe positions are pairwise independent instead of
// all being unfolded from a single 64-bit value.
//
// Both hashes are deterministic functions of the state vector (FNV-1a
// and an independent multiplicative-xor hash) rather than seeded
// hash/maphash: a model checker's runs must be reproducible — a
// bitstate run that pruned a violation behind a hash collision has to
// prune the same states when rerun — and the exhaustive exploration
// stays byte-for-byte identical across invocations.
type digest struct{ h1, h2 uint64 }

// fnv1a is the primary state-vector hash (the same function the
// original sequential checker used, keeping exploration identical).
// Raw hash primitive: every call outside engine.digest bypasses the
// single digest funnel and is rejected by the digestfunnel analyzer.
//
//iotsan:hash-sink
func fnv1a(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// hash2 is the second, independent hash for bitstate double hashing: a
// multiplicative-xor pass with a different odd multiplier (so it is not
// an affine transform of fnv1a — FNV with a different offset basis
// would be), finalized with splitmix64 for avalanche.
//
//iotsan:hash-sink
func hash2(data []byte) uint64 {
	const mult = 0x9e3779b97f4a7c15 // 2^64/φ, odd
	h := uint64(0x2545f4914f6cdd1d)
	for _, b := range data {
		h = (h ^ uint64(b)) * mult
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// store is the visited-state set abstraction. seen inserts the state
// fingerprint, reporting whether it was already present; peek looks a
// fingerprint up without inserting it (the partial-order reduction
// proviso probes candidate successors before committing to a reduced
// expansion); size returns the number of stored entries (approximate
// for bitstate).
//
// Sequential stores (hashStore, bitStore, nopStore) are not safe for
// concurrent use; the engine selects their sharded/atomic counterparts
// (shardedHashStore, atomicBitStore, atomicNopStore) for the
// work-stealing strategy.
type store interface {
	seen(d digest) bool
	peek(d digest) bool
	size() int
}

// newStore builds the visited store for a run. parallel selects the
// concurrency-safe variants; the tiered store is concurrency-safe by
// construction and serves both. A tiered store that cannot open its
// files (missing StoreDir, I/O failure) is an environment error the
// caller cannot recover mid-run, so it panics with the cause — the
// iotsan layer validates and creates the directory before running.
func newStore(opts Options, parallel bool) store {
	switch {
	case opts.NoDedup:
		if parallel {
			return &atomicNopStore{}
		}
		return &nopStore{}
	case opts.Store == Bitstate:
		if parallel {
			return newAtomicBitStore(opts.BitstateBits, opts.BitstateK)
		}
		return newBitStore(opts.BitstateBits, opts.BitstateK)
	case opts.Store == Tiered:
		ts, err := newTieredStore(opts.StoreDir, opts.MemBudget)
		if err != nil {
			panic(err)
		}
		return ts
	default:
		if parallel {
			return newShardedHashStore()
		}
		return &hashStore{m: map[uint64]struct{}{}}
	}
}

// hashStore is the sequential exhaustive hash-compact store.
type hashStore struct{ m map[uint64]struct{} }

func (s *hashStore) seen(d digest) bool {
	if _, ok := s.m[d.h1]; ok {
		return true
	}
	s.m[d.h1] = struct{}{}
	return false
}

func (s *hashStore) peek(d digest) bool {
	_, ok := s.m[d.h1]
	return ok
}

func (s *hashStore) size() int { return len(s.m) }

// hashShards is the number of lock stripes in the sharded store. 256
// stripes keep contention negligible for any practical worker count
// while costing only a few KB of mutexes.
const hashShards = 256

// shardedHashStore is the lock-striped exhaustive store for the
// work-stealing strategy: h1's top bits pick a shard, so insertions from
// different workers rarely contend on the same mutex.
type shardedHashStore struct {
	//iotsan:padded
	shards [hashShards]struct {
		mu sync.Mutex
		m  map[uint64]struct{}
		// pad the 8-byte mutex + 8-byte map header to a full 64-byte
		// cache line so neighboring shards' hot mutexes never false-share
		_ [48]byte
	}
}

func newShardedHashStore() *shardedHashStore {
	s := &shardedHashStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]struct{})
	}
	return s
}

func (s *shardedHashStore) seen(d digest) bool {
	sh := &s.shards[d.h1>>56&(hashShards-1)]
	sh.mu.Lock()
	_, ok := sh.m[d.h1]
	if !ok {
		sh.m[d.h1] = struct{}{}
	}
	sh.mu.Unlock()
	return ok
}

func (s *shardedHashStore) peek(d digest) bool {
	sh := &s.shards[d.h1>>56&(hashShards-1)]
	sh.mu.Lock()
	_, ok := sh.m[d.h1]
	sh.mu.Unlock()
	return ok
}

func (s *shardedHashStore) size() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += len(s.shards[i].m)
		s.shards[i].mu.Unlock()
	}
	return n
}

// bitstateDefaults normalises the bitstate sizing parameters.
func bitstateDefaults(logBits uint, k int) (uint, int) {
	if logBits == 0 {
		logBits = 26
	}
	if logBits < 10 {
		logBits = 10
	}
	if k <= 0 {
		k = 3
	}
	return logBits, k
}

// probe returns the i-th bit position for a fingerprint by double
// hashing: pos_i = h1 + i*(h2|1). Forcing the stride odd keeps it
// coprime with the power-of-two table size, so the k probes are
// distinct and independent across the two hash functions.
func (d digest) probe(i int, mask uint64) uint64 {
	return (d.h1 + uint64(i)*(d.h2|1)) & mask
}

// bitStore is Spin's BITSTATE: k probes into a 2^bits bit array.
type bitStore struct {
	bits  []uint64
	mask  uint64
	k     int
	count int
}

func newBitStore(logBits uint, k int) *bitStore {
	logBits, k = bitstateDefaults(logBits, k)
	n := uint64(1) << logBits
	return &bitStore{bits: make([]uint64, n/64), mask: n - 1, k: k}
}

func (s *bitStore) seen(d digest) bool {
	all := true
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		w, b := pos/64, pos%64
		if s.bits[w]&(1<<b) == 0 {
			all = false
			s.bits[w] |= 1 << b
		}
	}
	if !all {
		s.count++
	}
	return all
}

func (s *bitStore) peek(d digest) bool {
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		if s.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func (s *bitStore) size() int { return s.count }

// atomicBitStore is the bitstate store for the work-stealing strategy:
// the same probe scheme with lock-free atomic bit operations, so insertion
// scales with cores. Two workers racing on the same unseen state may
// both observe it as new (both count it explored); that duplication is
// harmless — successors are deduplicated when next reached — and is the
// standard trade-off in lock-free bitstate implementations.
type atomicBitStore struct {
	bits  []atomic.Uint64
	mask  uint64
	k     int
	count atomic.Int64
}

func newAtomicBitStore(logBits uint, k int) *atomicBitStore {
	logBits, k = bitstateDefaults(logBits, k)
	n := uint64(1) << logBits
	return &atomicBitStore{bits: make([]atomic.Uint64, n/64), mask: n - 1, k: k}
}

func (s *atomicBitStore) seen(d digest) bool {
	all := true
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		w, b := pos/64, pos%64
		if !s.setBit(w, uint64(1)<<b) {
			all = false
		}
	}
	if !all {
		s.count.Add(1)
	}
	return all
}

// setBit sets mask's bit in word w, reporting whether it was already
// set. A load + CompareAndSwap loop rather than atomic.Uint64.Or: with
// the Or form, go1.24.0 emits code for this method that faults on its
// first call (SIGSEGV in the checker's test suite, reproducible by
// swapping the forms back; a minimal standalone Or-with-result-consumed
// program does not trigger it, so the miscompilation is specific to
// this inlining/register context). The load fast path — bit already
// set, no write — is also what bitstate lookups mostly hit once the
// array fills.
func (s *atomicBitStore) setBit(w, mask uint64) bool {
	for {
		old := s.bits[w].Load()
		if old&mask != 0 {
			return true
		}
		if s.bits[w].CompareAndSwap(old, old|mask) {
			return false
		}
	}
}

func (s *atomicBitStore) peek(d digest) bool {
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		if s.bits[pos/64].Load()&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func (s *atomicBitStore) size() int { return int(s.count.Load()) }

// nopStore disables state matching (NoDedup).
type nopStore struct{ count int }

func (s *nopStore) seen(digest) bool { s.count++; return false }
func (s *nopStore) peek(digest) bool { return false }
func (s *nopStore) size() int        { return s.count }

type atomicNopStore struct{ count atomic.Int64 }

func (s *atomicNopStore) seen(digest) bool { s.count.Add(1); return false }
func (s *atomicNopStore) peek(digest) bool { return false }
func (s *atomicNopStore) size() int        { return int(s.count.Load()) }
