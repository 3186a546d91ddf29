package state

import (
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// fillStore populates a store with a deterministic multi-interval
// window for several keys.
func fillStore(w, intervals int) *Store {
	s := NewStore(w)
	for it := 0; it < intervals; it++ {
		for k := tuple.Key(1); k <= 5; k++ {
			for e := 0; e < int(k); e++ {
				s.Add(k, Entry{Value: int64(it*100 + e), Size: int64(e + 1)})
			}
		}
		s.EndInterval()
	}
	return s
}

// TestCodecRoundTrip: Extract → Encode → Decode → Inject into a fresh
// store must reproduce the key's entries, size and window behavior
// exactly.
func TestCodecRoundTrip(t *testing.T) {
	var c Codec
	for _, k := range []tuple.Key{1, 3, 5} {
		src := fillStore(3, 4)
		ref := fillStore(3, 4)

		wantEntries := append([]Entry(nil), src.Entries(k)...)
		m := src.Extract(k)
		wantMem := int64(7 * int(k))

		p, err := c.Encode(m, wantMem)
		if err != nil {
			t.Fatalf("encode key %d: %v", k, err)
		}
		got, mem, err := c.Decode(p)
		if err != nil {
			t.Fatalf("decode key %d: %v", k, err)
		}
		if mem != wantMem {
			t.Fatalf("key %d: mem %d, want %d", k, mem, wantMem)
		}
		if got.Key != m.Key || got.Size != m.Size {
			t.Fatalf("key %d: header (%d,%d), want (%d,%d)", k, got.Key, got.Size, m.Key, m.Size)
		}

		dst := NewStore(3)
		for dst.Interval() < 4 {
			dst.EndInterval()
		}
		dst.Inject(got)
		if gotE := dst.Entries(k); !reflect.DeepEqual(gotE, wantEntries) {
			t.Fatalf("key %d entries after round trip:\n got  %v\n want %v", k, gotE, wantEntries)
		}
		if dst.Size(k) != ref.Size(k) {
			t.Fatalf("key %d size %d, want %d", k, dst.Size(k), ref.Size(k))
		}

		// Window eviction must continue correctly on decoded state: run
		// both stores forward and compare sizes each interval.
		for i := 0; i < 4; i++ {
			dst.EndInterval()
			ref.EndInterval()
			if dst.Size(k) != ref.Size(k) {
				t.Fatalf("key %d after %d more intervals: size %d, want %d", k, i+1, dst.Size(k), ref.Size(k))
			}
		}
	}
}

// TestCodecStatelessKey: extracting a key with no state yields an
// empty Migrated that still round-trips (zero-cost moves are real
// protocol traffic).
func TestCodecStatelessKey(t *testing.T) {
	var c Codec
	s := NewStore(2)
	m := s.Extract(42)
	p, err := c.Encode(m, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, mem, err := c.Decode(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Key != 42 || got.Size != 0 || mem != 0 {
		t.Fatalf("stateless round trip: got key=%d size=%d mem=%d", got.Key, got.Size, mem)
	}
	dst := NewStore(2)
	dst.Inject(got)
	if dst.KeyCount() != 0 {
		t.Fatalf("injecting empty state created a key")
	}
}

// TestCodecSelfContained: every payload decodes with a fresh decoder
// that has seen no other payload — the property a cross-process
// deployment depends on (destination workers join mid-stream).
func TestCodecSelfContained(t *testing.T) {
	var c Codec
	src := fillStore(2, 3)
	p1, err := c.Encode(src.Extract(1), 3)
	if err != nil {
		t.Fatalf("encode 1: %v", err)
	}
	p2, err := c.Encode(src.Extract(2), 6)
	if err != nil {
		t.Fatalf("encode 2: %v", err)
	}
	// Decode in reverse order; each must stand alone.
	if _, _, err := c.Decode(p2); err != nil {
		t.Fatalf("decode p2 first: %v", err)
	}
	if _, _, err := c.Decode(p1); err != nil {
		t.Fatalf("decode p1 second: %v", err)
	}
}

// TestCodecCorruptPayload: truncated or garbage payloads must error,
// not decode into a partial window.
func TestCodecCorruptPayload(t *testing.T) {
	var c Codec
	src := fillStore(2, 3)
	p, err := c.Encode(src.Extract(3), 9)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, cut := range []int{0, 1, len(p) / 2, len(p) - 1} {
		if _, _, err := c.Decode(p[:cut]); err == nil {
			t.Fatalf("decoding %d-byte prefix of %d succeeded", cut, len(p))
		}
	}
}
