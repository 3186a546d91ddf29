package main

import (
	"repro/internal/tuple"
	"repro/internal/workload"
)

// ringIntervals is G: how many distinct intervals of input a workload
// pre-generates. The replay wraps around after G intervals, so a run of
// any length costs the same set-up and the same memory.
const ringIntervals = 128

// fold is the order-free checksum of a multiset of keys: how many, their
// sum, and the sum of a mixed image of each. Operators fold what they
// process; the same fold over the pre-generated input is the reference.
// A lost tuple changes n; a tuple lost and another duplicated keeps n
// and changes the sums. Arithmetic wraps, which is fine for equality.
type fold struct {
	n, sumKey, sumMix uint64
}

// mix is the 64-bit finalizer of MurmurHash3: a bijection, so distinct
// keys contribute distinct terms to sumMix.
func mix(k tuple.Key) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// addN folds n occurrences of key k.
func (f *fold) addN(k tuple.Key, n uint64) {
	f.n += n
	f.sumKey += uint64(k) * n
	f.sumMix += mix(k) * n
}

func (f *fold) merge(o fold) {
	f.n += o.n
	f.sumKey += o.sumKey
	f.sumMix += o.sumMix
}

// modAssigner is the fixed partition function the fluctuation step
// swaps key ranks against: key mod nd. It stands in for the engine's
// live assignment so that the input depends on the seed alone — never
// on where the system under test happened to route a key.
type modAssigner int

func (m modAssigner) Dest(k tuple.Key) int { return int(uint64(k) % uint64(m)) }
func (m modAssigner) Instances() int       { return int(m) }

// input is one workload's pre-generated stream: ringIntervals intervals
// of budget keys each, drawn from workload.ZipfStream in set-up.
type input struct {
	budget int
	keys   []tuple.Key // ringIntervals × budget, interval-major
	folds  []fold      // per ring interval
}

// genInput draws the ring. With f > 0 the rank permutation is re-drawn
// before every interval (against modAssigner(nd)), so consecutive
// intervals differ in which keys are hot, as in the paper's Fig. 13.
func genInput(w *workloadDef, seed int64) *input {
	in := &input{
		budget: w.budget,
		keys:   make([]tuple.Key, ringIntervals*w.budget),
		folds:  make([]fold, ringIntervals),
	}
	gen := workload.NewZipfStream(w.keys, w.z, w.f, int64(w.budget), seed)
	asg := modAssigner(w.fluctND)
	scratch := make([]tuple.Tuple, w.budget)
	for g := 0; g < ringIntervals; g++ {
		gen.NextBatch(scratch)
		dst := in.keys[g*w.budget : (g+1)*w.budget]
		f := &in.folds[g]
		for i := range scratch {
			dst[i] = scratch[i].Key
			f.addN(scratch[i].Key, 1)
		}
		gen.Advance(asg)
	}
	return in
}

// reference folds the first n intervals of the replayed stream.
func (in *input) reference(n int) fold {
	var f fold
	for i := 0; i < n; i++ {
		f.merge(in.folds[i%ringIntervals])
	}
	return f
}

// exactCounts is the per-key reference for -smoke.
func (in *input) exactCounts(n int) map[tuple.Key]int64 {
	m := make(map[tuple.Key]int64)
	for i := 0; i < n; i++ {
		g := i % ringIntervals
		for _, k := range in.keys[g*in.budget : (g+1)*in.budget] {
			m[k]++
		}
	}
	return m
}

// replay is the spout the system under test reads: it copies keys out of
// the ring into unit-cost tuples and does nothing else, so the timed
// region never runs the generator. Seq is the draw position, as the
// generators stamp it, so tuples cost the same bytes on the wire.
type replay struct {
	in  *input
	pos int // next key in in.keys
	seq uint64
	tr  *tracer
}

func (r *replay) draw(dst []tuple.Tuple) int {
	sp := r.tr.begin(spanDraw)
	keys := r.in.keys
	pos := r.pos
	for i := range dst {
		r.seq++
		dst[i] = tuple.Tuple{Key: keys[pos], Cost: 1, StateSize: 1, Seq: r.seq}
		if pos++; pos == len(keys) {
			pos = 0
		}
	}
	r.pos = pos
	r.tr.end(sp)
	return len(dst)
}
