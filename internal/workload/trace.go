package workload

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/tuple"
)

// Trace replays a recorded tuple stream from a CSV source, so the
// system can be evaluated against real traces (the role the paper's
// proprietary Social and Stock feeds played). The format is
//
//	key,cost,state
//
// with cost and state optional (both defaulting to 1). Keys are either
// unsigned integers or arbitrary strings (hashed through tuple.KeyOf).
// A fourth column, the stream label older traces carry, is read and
// ignored, so they still load. Traces can loop to extend short
// recordings.
type Trace struct {
	tuples []tuple.Tuple
	// Loop restarts the trace at the end instead of returning ok=false.
	Loop bool
	pos  int
	seq  uint64
}

// ReadTrace parses a CSV trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = -1
	tr := &Trace{}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line+1, err)
		}
		line++
		if len(rec) == 0 || (len(rec) == 1 && rec[0] == "") {
			continue
		}
		var t tuple.Tuple
		if u, err := strconv.ParseUint(rec[0], 10, 64); err == nil {
			t = tuple.New(tuple.Key(u), rec[0])
		} else {
			t = tuple.New(tuple.KeyOf(rec[0]), rec[0])
		}
		if len(rec) > 1 && rec[1] != "" {
			c, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("workload: trace line %d: bad cost %q", line, rec[1])
			}
			t.Cost = c
		}
		if len(rec) > 2 && rec[2] != "" {
			s, err := strconv.ParseInt(rec[2], 10, 64)
			if err != nil || s < 0 {
				return nil, fmt.Errorf("workload: trace line %d: bad state size %q", line, rec[2])
			}
			t.StateSize = s
		}
		tr.tuples = append(tr.tuples, t)
	}
	if len(tr.tuples) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return tr, nil
}

// Len returns the number of recorded tuples.
func (t *Trace) Len() int { return len(t.tuples) }

// Next returns the next tuple. When the trace is exhausted and Loop is
// unset, ok is false.
func (t *Trace) Next() (tuple.Tuple, bool) {
	if t.pos >= len(t.tuples) {
		if !t.Loop {
			return tuple.Tuple{}, false
		}
		t.pos = 0
	}
	tp := t.tuples[t.pos]
	t.pos++
	t.seq++
	tp.Seq = t.seq
	return tp, true
}

// Spout adapts the trace to the engine's infinite spout contract
// (looping regardless of the Loop flag, since spouts cannot signal
// exhaustion).
func (t *Trace) Spout() func() tuple.Tuple {
	return func() tuple.Tuple {
		tp, ok := t.Next()
		if !ok {
			t.pos = 0
			tp, _ = t.Next()
		}
		return tp
	}
}

// WriteTrace records a tuple sequence as CSV, the inverse of ReadTrace
// (numeric keys only; string-keyed tuples round-trip through their
// hashed key).
func WriteTrace(w io.Writer, tuples []tuple.Tuple) error {
	cw := csv.NewWriter(w)
	for _, t := range tuples {
		rec := []string{
			strconv.FormatUint(uint64(t.Key), 10),
			strconv.FormatInt(t.Cost, 10),
			strconv.FormatInt(t.StateSize, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
