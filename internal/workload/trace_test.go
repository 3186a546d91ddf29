package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func TestReadTraceFull(t *testing.T) {
	in := "42,3,2\n7,1,1\nAAPL,5,4\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	a, ok := tr.Next()
	if !ok || a.Key != 42 || a.Cost != 3 || a.StateSize != 2 {
		t.Fatalf("first tuple = %+v", a)
	}
	_, _ = tr.Next()
	c, _ := tr.Next()
	if c.Key != tuple.KeyOf("AAPL") {
		t.Fatal("string key not hashed")
	}
	if _, ok := tr.Next(); ok {
		t.Fatal("exhausted trace returned a tuple")
	}
}

// TestReadTraceLegacyStreamColumn: a trace written with the stream
// label older traces carried in a fourth column still loads, the label
// ignored.
func TestReadTraceLegacyStreamColumn(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("42,3,2,R\n7,,,S\n"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr.Next()
	b, _ := tr.Next()
	if a.Key != 42 || a.Cost != 3 || a.StateSize != 2 || b.Key != 7 || b.Cost != 1 || b.StateSize != 1 {
		t.Fatalf("legacy rows = %+v, %+v", a, b)
	}
}

func TestReadTraceDefaults(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("5\n"))
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := tr.Next()
	if tp.Cost != 1 || tp.StateSize != 1 {
		t.Fatalf("defaults = %+v", tp)
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := ReadTrace(strings.NewReader("1,notanumber\n")); err == nil {
		t.Fatal("bad cost accepted")
	}
	if _, err := ReadTrace(strings.NewReader("1,1,-5\n")); err == nil {
		t.Fatal("negative state accepted")
	}
}

func TestTraceLoop(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("1\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	tr.Loop = true
	seen := []tuple.Key{}
	for i := 0; i < 5; i++ {
		tp, ok := tr.Next()
		if !ok {
			t.Fatal("looping trace ended")
		}
		seen = append(seen, tp.Key)
	}
	want := []tuple.Key{1, 2, 1, 2, 1}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("loop order %v, want %v", seen, want)
		}
	}
	// Sequence numbers stay monotone across the loop.
	tp, _ := tr.Next()
	if tp.Seq != 6 {
		t.Fatalf("Seq = %d, want 6", tp.Seq)
	}
}

func TestTraceSpoutNeverEnds(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("9\n"))
	if err != nil {
		t.Fatal(err)
	}
	spout := tr.Spout()
	for i := 0; i < 10; i++ {
		if spout().Key != 9 {
			t.Fatal("spout returned wrong tuple")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := []tuple.Tuple{
		{Key: 1, Cost: 2, StateSize: 3},
		tuple.New(99, nil),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "1,2,3\n99,1,1\n" {
		t.Fatalf("WriteTrace wrote %q, want three columns a row", got)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr.Next()
	b, _ := tr.Next()
	if a.Key != 1 || a.Cost != 2 || a.StateSize != 3 {
		t.Fatalf("round trip lost fields: %+v", a)
	}
	if b.Key != 99 || b.Cost != 1 {
		t.Fatalf("second tuple: %+v", b)
	}
}
