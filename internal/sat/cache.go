package sat

import (
	"bytes"
	"unsafe"

	"atpgeasy/internal/cnf"
)

// This file implements the production form of Algorithm 1's sub-formula
// table: the residual sub-formula is identified by an incrementally
// maintained 128-bit digest (see backtrack.go for the maintenance) and
// stored in a bounded open-addressing table with second-chance eviction,
// so cache memory stays flat no matter how large the search gets.
//
// Soundness: the digest is a commutative sum of per-clause fingerprints,
// each a strong mix of the clause's unassigned-literal hashes. Equal
// residual clause sets therefore always produce equal digests, and — with
// 128 bits — distinct residuals collide with negligible probability. A
// collision can only cause an incorrect UNSAT pruning; Caching.VerifyKeys
// removes even that risk by storing and comparing the exact byte key.

// DefaultCacheLimit bounds the sub-formula cache at 64 MiB per solver
// when Caching.CacheLimit is zero.
const DefaultCacheLimit = 64 << 20

// cacheProbe is the linear-probe window: a digest lives within this many
// slots of its home slot or not at all. Insertion into a full window
// evicts within the window (second chance), so lookups never scan farther.
const cacheProbe = 8

// digest is a 128-bit residual sub-formula fingerprint. Digests combine
// by component-wise addition mod 2^64 — a commutative group, which is what
// makes O(occurrences) incremental maintenance possible.
type digest [2]uint64

func (d *digest) add(o digest) { d[0] += o[0]; d[1] += o[1] }
func (d *digest) sub(o digest) { d[0] -= o[0]; d[1] -= o[1] }

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with
// full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// litDigest is the per-literal hash contribution, precomputed once per
// solve for every literal of the formula.
func litDigest(l cnf.Lit) digest {
	x := uint64(l) + 1
	return digest{mix64(x * 0x9e3779b97f4a7c15), mix64(x ^ 0xd1b54a32d192ed03)}
}

// cacheEntry is one slot of the table; used marks it occupied.
type cacheEntry struct {
	dig  digest
	key  []byte // exact residual key; nil outside verification mode
	used bool
	ref  bool // second-chance reference bit
}

// cacheSlotBytes is the accounted size of one slot.
var cacheSlotBytes = int64(unsafe.Sizeof(cacheEntry{}))

// cacheTable is the bounded open-addressing sub-formula table. It starts
// small and doubles lazily up to the largest power-of-two slot count whose
// slab fits the byte limit; past that, insertions evict second-chance
// within the probe window. In verification mode the stored byte keys are
// accounted too, with a clock hand reclaiming entries when they push the
// total over the limit.
type cacheTable struct {
	slots     []cacheEntry
	mask      uint64
	maxSlots  int
	limit     int64 // byte budget over slab + stored keys
	live      int64
	keyBytes  int64
	evictions int64
	hand      uint64 // clock hand for byte-budget reclamation
}

// cacheMinSlots is the initial (and minimum) slot count.
const cacheMinSlots = 1 << 10

// init sizes an empty table for one solve under the given byte limit
// (0 = DefaultCacheLimit).
func (t *cacheTable) init(limit int64) {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	t.limit = limit
	t.maxSlots = cacheProbe * 2 // floor so tiny limits still yield a working table
	for int64(t.maxSlots*2)*cacheSlotBytes <= limit && t.maxSlots < 1<<30 {
		t.maxSlots *= 2
	}
	n := min(cacheMinSlots, t.maxSlots)
	t.slots = make([]cacheEntry, n)
	t.mask = uint64(n - 1)
}

// bytes is the accounted footprint: slot slab plus stored exact keys.
func (t *cacheTable) bytes() int64 {
	return int64(len(t.slots))*cacheSlotBytes + t.keyBytes
}

// lookup reports whether dig is cached. In verification mode (key != nil)
// a digest match must also match the exact residual key; collisions
// counts digest hits rejected by that comparison.
func (t *cacheTable) lookup(dig digest, key []byte) (hit bool, collisions int64) {
	i := dig[0] & t.mask
	for p := uint64(0); p < cacheProbe; p++ {
		s := &t.slots[(i+p)&t.mask]
		if !s.used {
			return false, collisions // empty slot ends the probe chain
		}
		if s.dig == dig {
			if key != nil && !bytes.Equal(s.key, key) {
				collisions++
				continue
			}
			s.ref = true
			return true, collisions
		}
	}
	return false, collisions
}

// insert stores dig (and, in verification mode, a copy of key). When the
// probe window is full it evicts by second chance: reference bits are
// cleared along the scan and the first entry found unreferenced is
// replaced (the window's last slot if every entry was referenced).
func (t *cacheTable) insert(dig digest, key []byte) {
	i := dig[0] & t.mask
	victim := -1
	for p := uint64(0); p < cacheProbe; p++ {
		j := int((i + p) & t.mask)
		s := &t.slots[j]
		if !s.used {
			t.place(j, dig, key, false)
			t.maybeGrow()
			return
		}
		if s.dig == dig && (key == nil || bytes.Equal(s.key, key)) {
			s.ref = true
			return // already cached
		}
		if victim < 0 && !s.ref {
			victim = j
		}
		s.ref = false
	}
	if victim < 0 {
		victim = int((i + cacheProbe - 1) & t.mask)
	}
	t.place(victim, dig, key, true)
}

// place writes an entry into slot j, optionally accounting an eviction of
// the slot's previous occupant.
func (t *cacheTable) place(j int, dig digest, key []byte, evict bool) {
	s := &t.slots[j]
	if evict {
		t.evictions++
		t.keyBytes -= int64(len(s.key))
		t.live--
	}
	s.dig = dig
	s.used = true
	s.ref = false
	if key == nil {
		s.key = nil
	} else {
		s.key = append(s.key[:0], key...) // reuse the slot's previous key capacity
		t.keyBytes += int64(len(s.key))
	}
	t.live++
	if key != nil {
		t.reclaim(j)
	}
}

// reclaim clock-evicts live entries (sparing keep, the entry just placed)
// until the stored keys fit the byte budget again. Emptied slots may
// orphan entries further along their probe chains — those become
// unreachable and are reclaimed by the same clock later; the cost is lost
// pruning opportunities, never wrong answers.
func (t *cacheTable) reclaim(keep int) {
	for t.bytes() > t.limit && t.live > 1 && t.keyBytes > 0 {
		j := int(t.hand & t.mask)
		t.hand++
		s := &t.slots[j]
		if j == keep || !s.used {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		s.used = false
		t.keyBytes -= int64(len(s.key))
		s.key = nil
		t.live--
		t.evictions++
	}
}

// maybeGrow doubles the table once load reaches 3/4, up to the byte
// limit's slot budget. Entries that no longer fit their probe window
// after rehashing are dropped (rare at this load factor).
func (t *cacheTable) maybeGrow() {
	if len(t.slots) >= t.maxSlots || t.live*4 < int64(len(t.slots))*3 {
		return
	}
	old := t.slots
	t.slots = make([]cacheEntry, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.live, t.keyBytes = 0, 0
	for i := range old {
		s := &old[i]
		if !s.used {
			continue
		}
		home := s.dig[0] & t.mask
		placed := false
		for p := uint64(0); p < cacheProbe; p++ {
			j := (home + p) & t.mask
			if !t.slots[j].used {
				t.slots[j] = cacheEntry{dig: s.dig, key: s.key, used: true, ref: s.ref}
				t.live++
				t.keyBytes += int64(len(s.key))
				placed = true
				break
			}
		}
		if !placed {
			t.evictions++
		}
	}
}
