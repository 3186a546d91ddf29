package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestFramedShutdownMarker: after WriteShutdownFrame the reader drains
// everything sent before the marker, then reports io.EOF — the clean
// half of the clean-vs-truncated distinction.
func TestFramedShutdownMarker(t *testing.T) {
	var wire bytes.Buffer
	c := NewFramedCodec(&wire)
	want := &Message{Ack: &Ack{TaskID: 2, Interval: 7}}
	if err := c.Send(want); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := WriteShutdownFrame(&wire); err != nil {
		t.Fatalf("shutdown frame: %v", err)
	}

	rc := NewFramedCodec(readerOnly{bytes.NewReader(wire.Bytes())})
	got, err := rc.Recv()
	if err != nil {
		t.Fatalf("recv before marker: %v", err)
	}
	if got.Ack == nil || *got.Ack != *want.Ack {
		t.Fatalf("recv: %#v", got)
	}
	if _, err := rc.Recv(); err != io.EOF {
		t.Fatalf("recv after marker: %v, want io.EOF", err)
	}
	// EOF must latch.
	if _, err := rc.Recv(); err != io.EOF {
		t.Fatalf("second recv after marker: %v, want io.EOF", err)
	}
}

// TestFramedCleanCloseWithoutMarker: a stream ending exactly on a
// frame boundary (peer process exited without the marker) is still a
// clean EOF, not a truncation error.
func TestFramedCleanCloseWithoutMarker(t *testing.T) {
	var wire bytes.Buffer
	c := NewFramedCodec(&wire)
	if err := c.Send(&Message{Ack: &Ack{TaskID: 1, Interval: 3}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	rc := NewFramedCodec(readerOnly{bytes.NewReader(wire.Bytes())})
	if _, err := rc.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if _, err := rc.Recv(); err != io.EOF {
		t.Fatalf("recv at end: %v, want io.EOF", err)
	}
}

// TestFramedTruncation: cuts inside the header and inside the body
// must surface as errors wrapping io.ErrUnexpectedEOF.
func TestFramedTruncation(t *testing.T) {
	var wire bytes.Buffer
	c := NewFramedCodec(&wire)
	if err := c.Send(&Message{Ack: &Ack{TaskID: 2, Interval: 9}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	full := wire.Bytes()
	for _, cut := range []int{1, 2, 3, frameHeaderLen + 1, len(full) - 1} {
		rc := NewFramedCodec(readerOnly{bytes.NewReader(full[:cut])})
		_, err := rc.Recv()
		if err == nil {
			t.Fatalf("cut %d: decoded a message from a truncated stream", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut %d: error %q does not mention truncation", cut, err)
		}
	}
}

// TestFramedOversizeFrame: a hostile or corrupt length prefix beyond
// maxFrame errors immediately instead of attempting the allocation.
func TestFramedOversizeFrame(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	rc := NewFramedCodec(readerOnly{bytes.NewReader(hdr[:])})
	_, err := rc.Recv()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v, want ErrFrameTooLarge", err)
	}

	fw := &frameWriter{w: io.Discard}
	if _, err := fw.Write(make([]byte, maxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: %v, want ErrFrameTooLarge", err)
	}
}
