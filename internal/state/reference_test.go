package state

import "repro/internal/tuple"

// refStore is the map-based store this package shipped before the flat
// layout, kept as the reference model the randomized tests pin Store
// against: a Go map of per-key bucket lists, a fresh entry slice per key
// per interval, and a close that ranges over every live key.
//
// One deliberate difference is left in: refStore prunes lazily, so a
// bucket injected already older than the window is counted by
// TotalSize/KeyCount/Keys until the key is next touched or an interval
// closes; Store evicts it on arrival. The model test touches the
// injected key (Size) before comparing those three.
type refStore struct {
	window   int
	interval int64
	keys     map[tuple.Key]*refKeyState
	total    int64
}

type refKeyState struct {
	buckets []bucket
	size    int64
}

func newRefStore(w int) *refStore {
	if w < 1 {
		w = 1
	}
	return &refStore{window: w, keys: make(map[tuple.Key]*refKeyState)}
}

func (s *refStore) Add(k tuple.Key, e Entry) {
	ks := s.keys[k]
	if ks == nil {
		ks = &refKeyState{}
		s.keys[k] = ks
	}
	n := len(ks.buckets)
	if n == 0 || ks.buckets[n-1].interval != s.interval {
		ks.buckets = append(ks.buckets, bucket{interval: s.interval})
		n++
	}
	b := &ks.buckets[n-1]
	b.entries = append(b.entries, e)
	b.size += e.Size
	ks.size += e.Size
	s.total += e.Size
}

func (s *refStore) Entries(k tuple.Key) []Entry {
	ks := s.keys[k]
	if ks == nil {
		return nil
	}
	s.prune(k, ks)
	var out []Entry
	for _, b := range ks.buckets {
		out = append(out, b.entries...)
	}
	return out
}

func (s *refStore) Size(k tuple.Key) int64 {
	ks := s.keys[k]
	if ks == nil {
		return 0
	}
	s.prune(k, ks)
	return ks.size
}

func (s *refStore) TotalSize() int64 { return s.total }

func (s *refStore) KeyCount() int { return len(s.keys) }

func (s *refStore) Keys() []tuple.Key {
	out := make([]tuple.Key, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

func (s *refStore) EndInterval() {
	s.interval++
	for k, ks := range s.keys {
		s.prune(k, ks)
	}
}

func (s *refStore) prune(k tuple.Key, ks *refKeyState) {
	oldest := s.interval - int64(s.window)
	i := 0
	for i < len(ks.buckets) && ks.buckets[i].interval < oldest {
		ks.size -= ks.buckets[i].size
		s.total -= ks.buckets[i].size
		i++
	}
	if i > 0 {
		ks.buckets = ks.buckets[i:]
	}
	if len(ks.buckets) == 0 {
		delete(s.keys, k)
	}
}

func (s *refStore) Extract(k tuple.Key) Migrated {
	ks := s.keys[k]
	if ks == nil {
		return Migrated{Key: k}
	}
	s.prune(k, ks)
	if len(ks.buckets) == 0 {
		return Migrated{Key: k}
	}
	m := Migrated{Key: k, Size: ks.size, buckets: ks.buckets}
	s.total -= ks.size
	delete(s.keys, k)
	return m
}

func (s *refStore) Inject(m Migrated) {
	if len(m.buckets) == 0 {
		return
	}
	ks := s.keys[m.Key]
	if ks == nil {
		ks = &refKeyState{}
		s.keys[m.Key] = ks
	}
	merged := make([]bucket, 0, len(ks.buckets)+len(m.buckets))
	i, j := 0, 0
	for i < len(ks.buckets) || j < len(m.buckets) {
		switch {
		case i == len(ks.buckets):
			merged = append(merged, m.buckets[j])
			j++
		case j == len(m.buckets):
			merged = append(merged, ks.buckets[i])
			i++
		case ks.buckets[i].interval < m.buckets[j].interval:
			merged = append(merged, ks.buckets[i])
			i++
		case ks.buckets[i].interval > m.buckets[j].interval:
			merged = append(merged, m.buckets[j])
			j++
		default:
			b := ks.buckets[i]
			b.entries = append(b.entries, m.buckets[j].entries...)
			b.size += m.buckets[j].size
			merged = append(merged, b)
			i++
			j++
		}
	}
	ks.buckets = merged
	ks.size += m.Size
	s.total += m.Size
}
