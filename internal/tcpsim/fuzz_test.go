package tcpsim

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment hardens the TCP parser: every host parses segments from
// the (simulated) wire, and the replacement engine parses encapsulated
// redirects from devices.
func FuzzDecodeSegment(f *testing.F) {
	seg := &Segment{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK | FlagPSH, Payload: []byte("data")}
	valid := seg.Encode("a", "b")
	f.Add([]byte("a"), []byte("b"), valid)
	f.Add([]byte("a"), []byte("b"), valid[:10])
	f.Add([]byte(""), []byte(""), []byte{})
	f.Fuzz(func(t *testing.T, src, dst, data []byte) {
		orig := append([]byte(nil), data...)
		got, err := DecodeSegment(string(src), string(dst), data)
		// Decoding verifies the checksum in place: the input must come
		// back byte for byte, accepted or not.
		if !bytes.Equal(data, orig) {
			t.Fatalf("DecodeSegment modified its input: %x, was %x", data, orig)
		}
		if err != nil {
			return
		}
		// Round trip must be stable.
		re := got.Encode(string(src), string(dst))
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs: %x vs %x", re, data)
		}
	})
}

// FuzzDecapsulate hardens the redirect decapsulator (fed by the device's
// packet filter, but a compromised device could send anything).
func FuzzDecapsulate(f *testing.F) {
	seg := &Segment{SrcPort: 1, DstPort: 443, Payload: []byte{0x7F, 1, 2}}
	f.Add(encapsulate("10.0.0.2", "1.2.3.4", seg))
	f.Add([]byte("RDIR"))
	f.Add([]byte("RDIR\x00\x05abc"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst, got, err := decapsulate(data)
		if err != nil {
			return
		}
		re := encapsulate(src, dst, &got)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encapsulation differs")
		}
	})
}
