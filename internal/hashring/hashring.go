// Package hashring implements consistent hashing over task instances,
// the universal hash function h : K → D the paper assumes as the default
// key assignment (§II-A, citing Karger et al. [14]).
//
// The ring places VirtualNodes replicas of every instance on a 64-bit
// circle; a key is owned by the first replica clockwise from the key's
// hash point. Consistent hashing matters for the paper's scale-out
// experiment (Fig. 15): when an instance is added, only ~1/ND of the
// keys change their default destination, so the routing table does not
// have to absorb a full reshuffle.
package hashring

import (
	"fmt"
	"sort"

	"repro/internal/tuple"
)

// DefaultVirtualNodes is the replica count per instance. 128 keeps the
// max/min ownership ratio within a few percent for ND ≤ 64 while the
// ring stays small enough that rebuilds are cheap.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over instance IDs 0..n-1.
// Instances are dense integers because the paper's D is a fixed set of
// task instances inside one operator. The zero value is unusable; build
// rings with New.
type Ring struct {
	points   []point
	n        int
	replicas int

	// lut is a dense power-of-two successor table built at construction,
	// making Hash an O(1) masked array index on the hot path. Bucket i
	// covers the hash range [i<<shift, (i+1)<<shift). A bucket containing
	// no ring point stores the owning instance directly (every hash in
	// such a bucket has the same clockwise successor). A bucket containing
	// points stores ^j, where j is the index of its first point: the
	// successor is one of its points or the first point after it, so the
	// lookup scans forward from j — with lutFactor× more buckets than
	// points, one or two points. Results are exactly the binary search's.
	lut   []int32
	shift uint
}

type point struct {
	hash uint64
	inst int
}

// New builds a ring over n instances with the given number of virtual
// nodes per instance. n must be positive; replicas ≤ 0 selects
// DefaultVirtualNodes.
func New(n, replicas int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("hashring: non-positive instance count %d", n))
	}
	if replicas <= 0 {
		replicas = DefaultVirtualNodes
	}
	r := &Ring{n: n, replicas: replicas}
	r.points = make([]point, 0, n*replicas)
	for inst := 0; inst < n; inst++ {
		for v := 0; v < replicas; v++ {
			// Domain-separate point hashes from key hashes (Hash uses
			// mix(k) directly): without the double mix, instance 0's
			// points would be mix(v), colliding with the hash positions
			// of the small integer keys synthetic workloads use.
			h := mix(mix(uint64(inst)+1) ^ (uint64(v) + 0x9e3779b97f4a7c15))
			r.points = append(r.points, point{hash: h, inst: inst})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].inst < r.points[j].inst
	})
	r.buildLUT()
	return r
}

// lutFactor oversizes the lookup table relative to the point count so
// most buckets are point-free (the O(1) path); maxLUTBits caps the
// table at 4 MiB of int32 entries for very large rings.
const (
	lutFactor  = 8
	maxLUTBits = 20
)

// buildLUT precomputes the successor table from the sorted point list.
// It walks points and buckets together from high hash to low, so every
// empty bucket is stamped with the instance of the first point above it
// (wrapping to points[0] past the top of the circle), and every other
// bucket with the complement of its first point's index.
func (r *Ring) buildLUT() {
	bits := uint(1)
	for 1<<bits < len(r.points)*lutFactor && bits < maxLUTBits {
		bits++
	}
	size := 1 << bits
	shift := 64 - bits
	lut := make([]int32, size)
	succ := int32(r.points[0].inst) // wrap successor for the top arc
	b := size - 1
	for pi := len(r.points) - 1; pi >= 0; {
		pb := int(r.points[pi].hash >> shift)
		for ; b > pb; b-- {
			lut[b] = succ
		}
		for pi >= 0 && int(r.points[pi].hash>>shift) == pb {
			succ = int32(r.points[pi].inst)
			pi--
		}
		lut[pb] = ^int32(pi + 1)
		b = pb - 1
	}
	for ; b >= 0; b-- {
		lut[b] = succ
	}
	r.lut, r.shift = lut, shift
}

// Grow returns a new ring with one more instance, leaving r untouched.
// Existing instances keep their virtual-node positions, so only keys
// falling into the new instance's arcs move — the property the
// scale-out experiment relies on.
func (r *Ring) Grow() *Ring {
	return New(r.n+1, r.replicas)
}

// Shrink returns a new ring with the last instance removed, leaving r
// untouched. Point positions are deterministic per (instance, replica),
// so the surviving instances keep their arcs exactly: only keys whose
// clockwise successor was one of the retiring instance's points move —
// and they move to the next surviving point, never between survivors.
// This is the scale-in mirror of Grow. n must be at least 2.
func (r *Ring) Shrink() *Ring {
	if r.n < 2 {
		panic(fmt.Sprintf("hashring: cannot shrink a ring of %d instance(s)", r.n))
	}
	return New(r.n-1, r.replicas)
}

// Instances returns the number of instances on the ring.
func (r *Ring) Instances() int { return r.n }

// Hash returns the default destination instance for key k.
func (r *Ring) Hash(k tuple.Key) int { return r.Owner(Position(k)) }

// Position returns key k's hash position on the circle. Position and
// Owner are Hash in two calls that each inline, for a caller that
// routes a batch in its own loop.
func Position(k tuple.Key) uint64 { return mix(uint64(k)) }

// Owner returns the instance owning hash position h: the bucket's
// instance, or a forward scan from the bucket's first point.
func (r *Ring) Owner(h uint64) int {
	d := r.lut[h>>r.shift]
	if d >= 0 {
		return int(d)
	}
	return r.scan(^d, h)
}

// scan returns the instance of the first point at or after index i
// whose hash is ≥ h, wrapping past the last point. From a bucket's
// first point that is one of the bucket's points or the one after them.
func (r *Ring) scan(i int32, h uint64) int {
	ps := r.points
	for int(i) < len(ps) && ps[i].hash < h {
		i++
	}
	if int(i) == len(ps) {
		i = 0
	}
	return ps[i].inst
}

// HashTuples resolves a whole batch of tuples in one call, writing
// dsts[i] = Hash(ts[i].Key). The mix+LUT fast path runs as a tight loop
// with no per-key interface dispatch, which is what the batched routing
// path (route.Assignment.DestTuples) wants.
func (r *Ring) HashTuples(ts []tuple.Tuple, dsts []int) {
	dsts = dsts[:len(ts)]
	for i := range ts {
		dsts[i] = r.Owner(mix(uint64(ts[i].Key)))
	}
}

// mix is a 64-bit finalizer (splitmix64) giving a well-distributed
// position on the circle for sequential integer inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
