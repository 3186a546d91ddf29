package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Length framing for the socket transport. The Codec stages every
// message into one retained buffer and issues exactly one Write per
// Send; the framed layer prefixes that write with a 4-byte
// big-endian length so a socket reader can distinguish a cleanly
// closed stream from one cut mid-message. A zero-length frame is the
// clean-shutdown marker: the peer announced it is done, and the reader
// reports io.EOF from then on. Anything else that ends early — a
// stream cut inside a header or inside a frame body — surfaces as a
// truncation error wrapping io.ErrUnexpectedEOF, never as a silently
// short message.
//
// The framed layer sits beneath the Codec, so SentBytes/RecvBytes
// count payload bytes only (frame headers excluded).

// maxFrame bounds a single framed message. Nothing the control or data
// plane sends approaches it; its job is to turn a corrupted or hostile
// length prefix into an immediate error instead of an attempted
// 4 GiB allocation.
const maxFrame = 1 << 28

// frameHeaderLen is the length-prefix size in bytes.
const frameHeaderLen = 4

// ErrFrameTooLarge reports a length prefix exceeding maxFrame.
var ErrFrameTooLarge = errors.New("protocol: frame exceeds size limit")

// frameWriter turns the Codec's single Write per message into one
// header-prefixed write. The header and payload are staged into one
// retained buffer so the underlying stream still sees a single Write
// per message (one syscall on a real socket).
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	if len(p) > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(p))
	}
	need := frameHeaderLen + len(p)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	fw.buf = fw.buf[:need]
	binary.BigEndian.PutUint32(fw.buf[:frameHeaderLen], uint32(len(p)))
	copy(fw.buf[frameHeaderLen:], p)
	if _, err := fw.w.Write(fw.buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

// frameReader reassembles framed messages. The payload buffer is
// retained across frames, so steady-state reads allocate nothing.
type frameReader struct {
	r    io.Reader
	buf  []byte
	done bool
	hdr  [frameHeaderLen]byte
}

// frame returns the next whole frame payload, never empty. The returned
// slice aliases the retained buffer and is valid until the next frame.
// A clean EOF at a frame boundary, or the shutdown marker, is a closed
// stream and reports io.EOF from then on; an EOF inside the header or
// the body is a truncation error wrapping io.ErrUnexpectedEOF.
func (fr *frameReader) frame() ([]byte, error) {
	if fr.done {
		return nil, io.EOF
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			// Stream closed between frames without the shutdown marker:
			// still a clean end (the peer's process exited).
			fr.done = true
			return nil, io.EOF
		}
		return nil, fmt.Errorf("protocol: truncated frame header: %w", io.ErrUnexpectedEOF)
	}
	size := binary.BigEndian.Uint32(fr.hdr[:])
	if size == 0 {
		// Clean-shutdown marker.
		fr.done = true
		return nil, io.EOF
	}
	if size > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	if cap(fr.buf) < int(size) {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if n, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, fmt.Errorf("protocol: truncated frame (%d of %d bytes): %w", n, size, io.ErrUnexpectedEOF)
	}
	return fr.buf, nil
}

// NewFramedCodec wraps a byte stream in length framing and returns a
// Codec speaking the binary wire over it from the first byte: frame
// boundaries mean truncation is always detected and shutdown is clean.
func NewFramedCodec(rw io.ReadWriter) *Codec {
	return &Codec{w: &frameWriter{w: rw}, fr: &frameReader{r: rw}}
}

// WriteShutdownFrame writes the zero-length clean-shutdown marker,
// telling the peer's framed reader to report io.EOF after draining
// everything sent before it.
func WriteShutdownFrame(w io.Writer) error {
	var hdr [frameHeaderLen]byte
	_, err := w.Write(hdr[:])
	return err
}
