package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireDecode hammers the frame decoder with arbitrary byte streams:
// truncated frames, oversized length prefixes, and garbage gob payloads
// must all error cleanly — never panic, and never allocate beyond the
// fuzz limit no matter what the length prefix claims.
func FuzzWireDecode(f *testing.F) {
	seed := func(m *Msg) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Msg{Type: MsgHello, Proto: ProtoVersion, Machine: 1, Machines: 3}))
	f.Add(seed(&Msg{Type: MsgState, State: StateSetup, Payload: bytes.Repeat([]byte{7}, 100)}))
	f.Add(seed(&Msg{Type: MsgRun, Spec: Spec{Name: "eval:B", Kind: KindEval, Col: 3, Tasks: 4}, Tasks: []int{1, 2}}))
	f.Add(seed(&Msg{Type: MsgRun, Spec: Spec{Name: "eval:A", Kind: KindEval, Tasks: 2}, Tasks: []int{1},
		States: []StateBlob{{Kind: StateColumn, Payload: []byte{1, 2}}, {Kind: StateAdopt, Payload: []byte{3}}}}))
	f.Add(seed(&Msg{Type: MsgResult, Outputs: []TaskOutput{{Task: 0, Nanos: 5, Payload: []byte{1}}}}))
	valid := seed(&Msg{Type: MsgPing})
	f.Add(valid[:2])                      // truncated header
	f.Add(valid[:len(valid)-1])           // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})

	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		msg, n, err := ReadFrame(r, limit)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of a %d-byte input", n, len(data))
		}
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message without error")
		}
		// A frame that decodes must re-encode: the decoded form is a valid
		// message, not partially-filled garbage.
		var buf bytes.Buffer
		if _, werr := WriteFrame(&buf, msg); werr != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", werr)
		}
		// The decoder consumed exactly header + declared body.
		declared := int(binary.BigEndian.Uint32(data[:4]))
		if n != 4+declared {
			t.Fatalf("consumed %d bytes, frame declared 4+%d", n, declared)
		}
	})
}
