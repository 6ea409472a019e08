package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ProtoVersion is the wire protocol version carried in the handshake;
// mismatched peers refuse each other instead of mis-decoding. Version 2
// ships per-home setup blobs and carries queued state on MsgRun.
const ProtoVersion = 2

// DefaultMaxFrame bounds a frame body when the caller does not choose a
// tighter limit: large enough for a machine's setup share, small enough
// that a corrupt length prefix cannot ask for absurd memory.
const DefaultMaxFrame = 1 << 30

// readChunk caps the per-read allocation while a frame body streams in,
// so a hostile length prefix backed by a short stream never costs more
// than one chunk of memory beyond the bytes actually received.
const readChunk = 64 << 10

// MsgType identifies a protocol message.
type MsgType uint8

const (
	// MsgHello opens a connection: the coordinator announces the protocol
	// version, the executor's machine index, and the cluster size.
	MsgHello MsgType = iota + 1
	// MsgHelloOK acknowledges a compatible MsgHello.
	MsgHelloOK
	// MsgState pushes one replicated-state blob (State, Payload).
	MsgState
	// MsgAck acknowledges a MsgState.
	MsgAck
	// MsgRun requests execution of Tasks under Spec, after applying
	// States in order.
	MsgRun
	// MsgResult returns a MsgRun's outputs.
	MsgResult
	// MsgError reports a request that failed on the executor; Error holds
	// the message.
	MsgError
	// MsgPing and MsgPong are the liveness heartbeat.
	MsgPing
	MsgPong
)

// TaskOutput is one task's result inside a MsgResult: the executor's
// measured nanos and the output payload.
type TaskOutput struct {
	Task    int
	Nanos   int64
	Payload []byte
}

// Msg is the single wire message shape; which fields apply depends on
// Type. Slices, not maps, so gob encoding is deterministic.
type Msg struct {
	Type MsgType
	// Proto, Machine and Machines are the MsgHello handshake fields.
	Proto, Machine, Machines int
	// State and Payload carry a MsgState push.
	State   StateKind
	Payload []byte
	// Spec and Tasks carry a MsgRun request; States are the state blobs
	// queued for the executor since its previous request (committed
	// columns, an adopted home's setup), applied in order before any
	// task. A failed apply fails the request.
	Spec   Spec
	Tasks  []int
	States []StateBlob
	// Outputs carries a MsgResult.
	Outputs []TaskOutput
	// Error carries a MsgError.
	Error string
}

// WriteFrame writes one length-prefixed gob frame — a big-endian u32 body
// length followed by the gob-encoded message, a fresh encoder per frame so
// frames are self-contained and survive reconnects — and returns the bytes
// written.
func WriteFrame(w io.Writer, m *Msg) (int, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return 0, fmt.Errorf("transport: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	n, err := w.Write(b)
	if err != nil {
		return n, fmt.Errorf("transport: write frame: %w", err)
	}
	return n, nil
}

// ReadFrame reads one frame, enforcing maxFrame (<=0 means
// DefaultMaxFrame) on the length prefix before anything is allocated, and
// returns the decoded message with the bytes consumed. The body is read
// in bounded chunks, so a length prefix larger than the data actually
// sent errors out after allocating at most one chunk beyond the received
// bytes; a frame whose gob body ends before the declared length, or
// continues past it, is rejected as corrupt.
func ReadFrame(r io.Reader, maxFrame int64) (*Msg, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return nil, 0, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 {
		return nil, 4, errors.New("transport: empty frame")
	}
	if n > maxFrame {
		return nil, 4, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	body := make([]byte, 0, min64(n, readChunk))
	for int64(len(body)) < n {
		chunk := min64(n-int64(len(body)), readChunk)
		start := int64(len(body))
		body = append(body, make([]byte, chunk)...)
		got, err := io.ReadFull(r, body[start:])
		if err != nil {
			return nil, 4 + len(body[:start]) + got, fmt.Errorf("transport: truncated frame body (%d of %d bytes): %w", start+int64(got), n, err)
		}
	}
	br := bytes.NewReader(body)
	m := &Msg{}
	if err := gob.NewDecoder(br).Decode(m); err != nil {
		return nil, 4 + len(body), fmt.Errorf("transport: decode frame: %w", err)
	}
	if br.Len() != 0 {
		return nil, 4 + len(body), fmt.Errorf("transport: %d trailing bytes after frame body", br.Len())
	}
	return m, 4 + len(body), nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
