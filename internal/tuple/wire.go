package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value tags: the one encoding a Value takes on the wire, in a tuple
// batch's rows and a migrated key's state entries alike. They cover
// every type the in-tree workloads and operators put there; a value of
// any other type cannot cross a process boundary (AppendValue names it).
//
//	value := valNil | valInt64 zigzag | valInt zigzag | valUint64 uvarint
//	       | valFloat64 bits(8,BE) | valString len bytes | valBytes len bytes
//	       | valKey uvarint | valKeys n uvarint{n}
const (
	valNil byte = iota
	valInt64
	valInt
	valUint64
	valFloat64
	valString
	valBytes
	valKey
	valKeys
)

// AppendValue appends v's tagged encoding to dst, or returns an error
// naming v's Go type when it is outside the tag set.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case int64:
		return binary.AppendVarint(append(dst, valInt64), x), nil
	case int:
		return binary.AppendVarint(append(dst, valInt), int64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(dst, valUint64), x), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, valFloat64), math.Float64bits(x)), nil
	case string:
		return append(binary.AppendUvarint(append(dst, valString), uint64(len(x))), x...), nil
	case []byte:
		return append(binary.AppendUvarint(append(dst, valBytes), uint64(len(x))), x...), nil
	case Key:
		return binary.AppendUvarint(append(dst, valKey), uint64(x)), nil
	case []Key:
		return AppendKeys(append(dst, valKeys), x), nil
	}
	return dst, fmt.Errorf("tuple: a value of type %T has no wire encoding", v)
}

// AppendKeys appends a count-prefixed list of uvarint keys (Reader.Keys).
func AppendKeys(dst []byte, ks []Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

// UvarintAt decodes the uvarint at p[off:] and returns it with the
// offset past it. A truncated or overlong varint returns an offset past
// len(p), and so does any call that starts there: a caller can read
// fields back to back and check once.
func UvarintAt(p []byte, off int) (uint64, int) {
	if off >= len(p) {
		return 0, len(p) + 1
	}
	if p[off] < 0x80 {
		return uint64(p[off]), off + 1
	}
	if off+1 < len(p) && p[off+1] < 0x80 {
		return uint64(p[off]&0x7f) | uint64(p[off+1])<<7, off + 2
	}
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, len(p) + 1
	}
	return v, off + n
}

// Reader is the wire's bounds-checked decoder over P from Off, for the
// protocol's frames and migrated state alike. Its first failure sticks:
// Err records it (what and where; the decoder wraps it), the rest of P
// is dropped and every later read returns zero, so a decoder reads its
// fields in sequence and checks Err once. Nothing is sized by a count
// not checked against the bytes left, and a count that fails is zero.
type Reader struct {
	P   []byte
	Off int
	Err error
}

// Rem returns the bytes left.
func (r *Reader) Rem() int { return len(r.P) - r.Off }

// Fail records a failure at the offset, unless one came first.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%s at offset %d of %d", fmt.Sprintf(format, args...), r.Off, len(r.P))
	}
	r.Off = len(r.P)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Off >= len(r.P) {
		r.Fail("truncated byte")
		return 0
	}
	r.Off++
	return r.P[r.Off-1]
}

// Take returns the next n bytes, or nil (and fails) if they are short.
func (r *Reader) Take(n int) []byte {
	if n < 0 || r.Rem() < n {
		r.Fail("truncated %d-byte field", n)
		return nil
	}
	r.Off += n
	return r.P[r.Off-n : r.Off : r.Off]
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint; Varint a zigzag-signed one.
func (r *Reader) Uvarint() uint64 {
	v, off := UvarintAt(r.P, r.Off)
	if off > len(r.P) {
		r.Fail("bad uvarint")
		return 0
	}
	r.Off = off
	return v
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads the count of a list whose elements take at least min
// bytes each on the wire: one the bytes left cannot hold is hostile and
// fails before any allocation is sized from it.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if v > uint64(r.Rem()/min) {
		r.Fail("count %d of %d-byte elements exceeds %d remaining bytes", v, min, r.Rem())
		return 0
	}
	return int(v)
}

// Keys reads a count-prefixed list of uvarint keys; an empty one is nil.
func (r *Reader) Keys() []Key {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = Key(r.Uvarint())
	}
	return ks
}

// Value reads one tagged value.
func (r *Reader) Value() any {
	switch tag := r.Byte(); tag {
	case valNil:
		return nil
	case valInt64:
		return r.Varint()
	case valInt:
		return int(r.Varint())
	case valUint64:
		return r.Uvarint()
	case valFloat64:
		return math.Float64frombits(r.U64())
	case valString:
		return string(r.Take(r.Count(1)))
	case valBytes:
		return append([]byte(nil), r.Take(r.Count(1))...)
	case valKey:
		return Key(r.Uvarint())
	case valKeys:
		return r.Keys()
	default:
		r.Fail("unknown value tag %#x", tag)
		return nil
	}
}
