package state

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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

// windowPayload is a real two-bucket window of three tagged values
// (int64, string, []tuple.Key) as Encode writes it: the seed the
// corpus's payloads grow from.
func windowPayload() []byte {
	st := NewStore(2)
	st.Add(9, Entry{Value: int64(5), Size: 2})
	st.Add(9, Entry{Value: "w", Size: 1})
	st.EndInterval()
	st.Add(9, Entry{Value: []tuple.Key{1, 2}, Size: 3})
	p, err := Codec{}.Encode(st.Extract(9), 6)
	if err != nil {
		panic(err)
	}
	return p
}

// The hostile payloads the corpus under testdata/fuzz/FuzzCodecDecode
// carries too.
var (
	// Key 9, size 6, memory 6, then a bucket count of 2^32 behind three
	// bytes.
	hostileBuckets = []byte{9, 12, 12, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 2, 3}
	// A key varint that never ends.
	cutKey = []byte{0xaa, 0xbb}
)

// FuzzCodecDecode hands Decode an arbitrary payload, as a migration
// arriving from another host would: it must return a window or an
// error — never panic, never size an allocation by an unchecked count —
// and a window it returns must encode, to bytes that decode and encode
// again unchanged.
func FuzzCodecDecode(f *testing.F) {
	f.Add(windowPayload())
	f.Add(hostileBuckets)
	f.Add(cutKey)
	f.Fuzz(func(t *testing.T, p []byte) {
		m, mem, err := Codec{}.Decode(p)
		if err != nil {
			return
		}
		p1, err := Codec{}.Encode(m, mem)
		if err != nil {
			t.Fatalf("a decoded window does not encode: %v", err)
		}
		m2, mem2, err := Codec{}.Decode(p1)
		if err != nil {
			t.Fatalf("a re-encoded window does not decode: %v", err)
		}
		p2, err := Codec{}.Encode(m2, mem2)
		if err != nil || !bytes.Equal(p1, p2) {
			t.Fatalf("re-encoding changed the window:\n % x\n % x (%v)", p1, p2, err)
		}
	})
}

// TestCodecSeedsCommitted keeps the committed corpus equal to the
// payloads named here, so a layout change that breaks one fails here
// instead of leaving a seed that no longer reaches its check.
func TestCodecSeedsCommitted(t *testing.T) {
	for name, want := range map[string][]byte{
		"seed-state-window":       windowPayload(),
		"seed-state-huge-buckets": hostileBuckets,
		"seed-state-huge-payload": cutKey,
	} {
		b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCodecDecode", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		got, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil || got != string(want) {
			t.Fatalf("%s holds %q (%v), want %q", name, got, err, want)
		}
	}
}
