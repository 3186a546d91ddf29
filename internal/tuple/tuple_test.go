package tuple

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKeyOfDeterministic(t *testing.T) {
	if KeyOf("hello") != KeyOf("hello") {
		t.Fatal("KeyOf not deterministic")
	}
	if KeyOf("hello") == KeyOf("world") {
		t.Fatal("KeyOf collision on trivial inputs")
	}
}

func TestKeyOfMatchesFNV1a(t *testing.T) {
	// Known FNV-1a 64-bit test vector: "a" → 0xaf63dc4c8601ec8c.
	if got := KeyOf("a"); got != Key(0xaf63dc4c8601ec8c) {
		t.Fatalf("KeyOf(a) = %x, want af63dc4c8601ec8c", uint64(got))
	}
	// Empty string hashes to the offset basis.
	if got := KeyOf(""); got != Key(uint64(14695981039346656037)) {
		t.Fatalf("KeyOf(\"\") = %d, want offset basis", got)
	}
}

func TestKeyOfQuickNoTrivialCollisions(t *testing.T) {
	// Property: distinct short strings essentially never collide.
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return KeyOf(a) != KeyOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDefaults(t *testing.T) {
	tp := New(42, "v")
	if tp.Cost != 1 || tp.StateSize != 1 {
		t.Fatalf("New tuple cost/state = %d/%d, want 1/1", tp.Cost, tp.StateSize)
	}
	if tp.Key != 42 || tp.Value != "v" {
		t.Fatalf("New tuple key/value = %v/%v", tp.Key, tp.Value)
	}
}

func TestStringIncludesFields(t *testing.T) {
	s := New(5, "x").String()
	for _, want := range []string{"k=5", "v=x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestTupleIs48Bytes pins the tuple at 48 bytes: every data-plane copy
// (the feed path's scatter, an Emit, a decoded row) moves the whole
// struct, so a new field is paid on every one of them.
func TestTupleIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want 48", n)
	}
}
