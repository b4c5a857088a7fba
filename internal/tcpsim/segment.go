// Package tcpsim is a compact userspace TCP over the netsim substrate: SYN
// handshake, cumulative ACKs, segmentation, retransmission and checksums —
// enough protocol to host TinMan's TCP-layer mechanism, payload replacement
// (§3.3): a marked segment is captured by an egress filter on the device,
// redirected to the trusted node, its payload swapped for the cor-bearing
// ciphertext, and forwarded to the origin server with the original TCP
// header intact.
package tcpsim

import (
	"encoding/binary"
	"fmt"
)

// Flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// MSS is the maximum segment payload.
const MSS = 1400

// Segment is a TCP segment. Addresses live in the enclosing netsim packet;
// the checksum covers a pseudo-header with both.
type Segment struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Payload  []byte
}

const segHeaderLen = 17

// flagNames for diagnostics.
func (s *Segment) flagString() string {
	out := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}} {
		if s.Flags&f.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += f.name
		}
	}
	if out == "" {
		out = "-"
	}
	return out
}

// String renders the segment for logs.
func (s *Segment) String() string {
	return fmt.Sprintf("tcp %d->%d %s seq=%d ack=%d len=%d", s.SrcPort, s.DstPort, s.flagString(), s.Seq, s.Ack, len(s.Payload))
}

// Encode serializes the segment into a fresh packet, computing the checksum
// over the pseudo-header (src, dst) and the segment bytes.
func (s *Segment) Encode(src, dst string) []byte {
	buf := make([]byte, segHeaderLen+len(s.Payload))
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = s.Flags
	binary.BigEndian.PutUint16(buf[13:], s.Window)
	copy(buf[segHeaderLen:], s.Payload)
	ck := checksum(src, dst, buf)
	binary.BigEndian.PutUint16(buf[15:], ck)
	s.Checksum = ck
	return buf
}

// DecodeSegment parses and verifies a segment received between src and dst.
// It neither copies nor modifies buf: the returned Payload aliases it. The
// segment comes back by value, so parsing one allocates nothing.
func DecodeSegment(src, dst string, buf []byte) (Segment, error) {
	if len(buf) < segHeaderLen {
		return Segment{}, fmt.Errorf("tcpsim: segment too short (%d bytes)", len(buf))
	}
	s := Segment{
		SrcPort:  binary.BigEndian.Uint16(buf[0:]),
		DstPort:  binary.BigEndian.Uint16(buf[2:]),
		Seq:      binary.BigEndian.Uint32(buf[4:]),
		Ack:      binary.BigEndian.Uint32(buf[8:]),
		Flags:    buf[12],
		Window:   binary.BigEndian.Uint16(buf[13:]),
		Checksum: binary.BigEndian.Uint16(buf[15:]),
		Payload:  buf[segHeaderLen:],
	}
	if got := checksum(src, dst, buf); got != s.Checksum {
		return Segment{}, fmt.Errorf("tcpsim: checksum mismatch: header %#04x, computed %#04x", s.Checksum, got)
	}
	return s, nil
}

// checksum is a 16-bit ones'-complement sum over the pseudo-header and
// segment, in the spirit of RFC 1071. The segment's own checksum field
// (bytes 15-16) counts as zero whatever it holds, so the sum can be
// verified in place.
func checksum(src, dst string, seg []byte) uint16 {
	sum := uint32(sum16([]byte(src)) + sum16([]byte(dst)) + sum16(seg))
	// Byte 15 is the low half of the word at 14 and byte 16 the high half
	// of the word at 16 (or the odd last byte, padded the same way).
	sum -= uint32(seg[15]) + uint32(seg[16])<<8
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

// sum16 adds b up as big-endian 16-bit words, zero-padding an odd last
// byte. It reads eight bytes at a time; the total is the same.
func sum16(b []byte) uint64 {
	var sum uint64
	for ; len(b) >= 8; b = b[8:] {
		v := binary.BigEndian.Uint64(b)
		sum += v>>48 + v>>32&0xFFFF + v>>16&0xFFFF + v&0xFFFF
	}
	for ; len(b) >= 2; b = b[2:] {
		sum += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}
