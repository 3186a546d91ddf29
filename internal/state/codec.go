package state

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tuple"
)

// Codec serializes a key's extracted windowed state for migration
// across a process boundary: the payload a key's state would travel as
// when source and destination tasks do not share an address space (a
// stage in state-wire mode, engine.Stage.SetStateWire, round-trips every
// migrated key through it). Alongside the store window it carries
// the key's tracked windowed-memory figure, so the destination's
// statistics tracker adopts the key with the same Mem the source
// reported — keeping cross-process load reports bit-identical to the
// in-memory reference path. A payload stands alone (a decoding process
// has seen no other), integers as varints, signed ones zigzag:
//
//	payload := key size mem nbuckets (interval size nentries (size value)*)*
//
// An entry's value takes the tuple batch's value tags (tuple.AppendValue);
// a value outside them is an encode error naming its type.
type Codec struct{}

// Encode serializes a Migrated plus the key's tracked windowed memory.
func (Codec) Encode(m Migrated, mem int64) ([]byte, error) {
	p := binary.AppendUvarint(nil, uint64(m.Key))
	p = binary.AppendVarint(binary.AppendVarint(p, m.Size), mem)
	p = binary.AppendUvarint(p, uint64(len(m.buckets)))
	for _, b := range m.buckets {
		p = binary.AppendVarint(binary.AppendVarint(p, b.interval), b.size)
		p = binary.AppendUvarint(p, uint64(len(b.entries)))
		for _, e := range b.entries {
			var err error
			if p, err = tuple.AppendValue(binary.AppendVarint(p, e.Size), e.Value); err != nil {
				return nil, fmt.Errorf("state: encode: %w", err)
			}
		}
	}
	return p, nil
}

// Decode reconstructs a Migrated and the traveling windowed-memory
// figure from an Encode payload. The returned Migrated owns fresh
// bucket storage: injecting it never aliases the source store. Every
// count is checked against the bytes that remain before anything is
// sized by it.
func (Codec) Decode(p []byte) (Migrated, int64, error) {
	r := tuple.Reader{P: p}
	m := Migrated{Key: tuple.Key(r.Uvarint()), Size: r.Varint()}
	mem := r.Varint()
	if n := r.Count(3); n > 0 { // interval, size, entry count
		m.buckets = make([]bucket, n)
		for i := range m.buckets {
			b := &m.buckets[i]
			b.interval, b.size = r.Varint(), r.Varint()
			if ne := r.Count(2); ne > 0 { // size, value tag
				b.entries = make([]Entry, ne)
				for j := range b.entries {
					b.entries[j] = Entry{Size: r.Varint(), Value: r.Value()}
				}
			}
		}
	}
	if r.Err == nil && r.Rem() > 0 {
		r.Fail("%d trailing bytes", r.Rem())
	}
	if r.Err != nil {
		return Migrated{}, 0, fmt.Errorf("state: decode transfer: %w", r.Err)
	}
	return m, mem, nil
}
