// Package tuple defines the fundamental data unit flowing through the
// stream processing engine: a keyed tuple with an integer service cost
// and a state footprint.
//
// The paper models a stream as a sequence of key-value pairs τ = (k, v).
// Every tuple additionally carries the CPU cost c it charges to the task
// that processes it and the state size s it adds to the task's windowed
// store; both default to one unit. Keeping these on the tuple (rather
// than deriving them from the value) lets workload generators shape the
// cost and memory distributions independently, which the evaluation in
// §V of the paper requires.
package tuple

import "fmt"

// Key identifies the partitioning key of a tuple. The paper's key domain
// K is opaque; we use uint64 so synthetic generators can draw keys
// directly from integer domains and real-ish workloads can hash strings
// into the domain via KeyOf.
type Key uint64

// fnv64 constants for KeyOf.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyOf maps an arbitrary string (a word, a stock symbol, a join key)
// into the Key domain using FNV-1a. It is deterministic across runs.
func KeyOf(s string) Key {
	var h uint64 = fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Key(h)
}

// Tuple is one stream element. Value is free-form payload; Cost is the
// simulated CPU cost c charged when the tuple is processed; StateSize is
// the memory s the tuple contributes to the key's windowed state.
//
// A Tuple is 48 bytes — Key, Cost, StateSize, Value, Seq — and every
// data-plane copy (the feed path's scatter, an Emit, a decoded row)
// moves all of it: a field is added only when something reads it. Key,
// Cost and StateSize — the fields routing, arrival accounting and
// statistics touch per tuple — come first. A multi-input operator tells
// its inputs apart by the type of Value (the Q5 join switches on it),
// not by a per-tuple label.
type Tuple struct {
	Key       Key
	Cost      int64
	StateSize int64
	Value     any
	// Seq is a generator-assigned sequence number, used for latency
	// accounting and deterministic replay.
	Seq uint64
}

// New returns a unit-cost, unit-state tuple for key k carrying v.
func New(k Key, v any) Tuple {
	return Tuple{Key: k, Value: v, Cost: 1, StateSize: 1}
}

// String implements fmt.Stringer for debugging output.
func (t Tuple) String() string {
	return fmt.Sprintf("tuple{k=%d v=%v c=%d s=%d}", t.Key, t.Value, t.Cost, t.StateSize)
}
