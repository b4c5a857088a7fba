package tcpsim

import (
	"encoding/binary"
	"fmt"
)

// Verdict is a filter rule's action.
type Verdict uint8

const (
	// VerdictPass lets the segment continue normally.
	VerdictPass Verdict = iota
	// VerdictRedirect encapsulates the segment and ships it to another host
	// (the device's iptables rule redirecting marked packets to the trusted
	// node, §3.6).
	VerdictRedirect
	// VerdictDrop silently discards the segment.
	VerdictDrop
)

// FilterRule is an egress filter entry.
type FilterRule struct {
	Name string
	// Match inspects a copy of the outbound segment with its source and
	// destination addresses. The copy is passed by value so that matching
	// does not force the sender's segment onto the heap; Payload still
	// aliases the wire packet and must not be modified.
	Match func(seg Segment, src, dst string) bool
	// Verdict applies when Match returns true.
	Verdict Verdict
	// RedirectTo names the target host for VerdictRedirect.
	RedirectTo string
}

// AddEgressRule installs a rule; rules apply in installation order, first
// match wins.
func (st *Stack) AddEgressRule(r *FilterRule) error {
	if r.Match == nil {
		return fmt.Errorf("tcpsim: filter rule %q has no matcher", r.Name)
	}
	if r.Verdict == VerdictRedirect && r.RedirectTo == "" {
		return fmt.Errorf("tcpsim: redirect rule %q has no target", r.Name)
	}
	st.egress = append(st.egress, r)
	return nil
}

// RemoveEgressRule deletes rules by name and reports how many were removed.
func (st *Stack) RemoveEgressRule(name string) int {
	keep := st.egress[:0]
	removed := 0
	for _, r := range st.egress {
		if r.Name == name {
			removed++
			continue
		}
		keep = append(keep, r)
	}
	st.egress = keep
	return removed
}

// MarkedRecordRule builds the TinMan capture rule: match segments whose TCP
// payload begins with a TLS record of the given type byte (the modified SSL
// library writes a reserved value into the record type field precisely so
// this match needs no decryption, §3.6).
func MarkedRecordRule(markType byte, redirectTo string) *FilterRule {
	return &FilterRule{
		Name: fmt.Sprintf("tinman-cor-mark-%#02x", markType),
		Match: func(seg Segment, src, dst string) bool {
			return len(seg.Payload) > 0 && seg.Payload[0] == markType
		},
		Verdict:    VerdictRedirect,
		RedirectTo: redirectTo,
	}
}

// --- redirect encapsulation ---

// encapMagic prefixes redirected packets so the replacement engine (and the
// TCP demultiplexer, which must ignore them) can recognize them.
var encapMagic = [4]byte{'R', 'D', 'I', 'R'}

// encapsulate wraps an outbound segment with its original addressing.
func encapsulate(origSrc, origDst string, seg *Segment) []byte {
	segBytes := seg.Encode(origSrc, origDst)
	buf := make([]byte, 0, 4+4+len(origSrc)+len(origDst)+len(segBytes))
	buf = append(buf, encapMagic[:]...)
	var tmp [2]byte
	binary.BigEndian.PutUint16(tmp[:], uint16(len(origSrc)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, origSrc...)
	binary.BigEndian.PutUint16(tmp[:], uint16(len(origDst)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, origDst...)
	buf = append(buf, segBytes...)
	return buf
}

// isEncap reports whether a payload is a redirected encapsulation.
func isEncap(b []byte) bool {
	return len(b) >= 4 && b[0] == 'R' && b[1] == 'D' && b[2] == 'I' && b[3] == 'R'
}

// decapsulate recovers the original addressing and segment.
func decapsulate(b []byte) (origSrc, origDst string, seg Segment, err error) {
	if !isEncap(b) {
		return "", "", Segment{}, fmt.Errorf("tcpsim: not an encapsulated redirect")
	}
	b = b[4:]
	readStr := func() (string, error) {
		if len(b) < 2 {
			return "", fmt.Errorf("tcpsim: truncated encapsulation")
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return "", fmt.Errorf("tcpsim: truncated encapsulated address")
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	if origSrc, err = readStr(); err != nil {
		return "", "", Segment{}, err
	}
	if origDst, err = readStr(); err != nil {
		return "", "", Segment{}, err
	}
	seg, err = DecodeSegment(origSrc, origDst, b)
	if err != nil {
		return "", "", Segment{}, err
	}
	return origSrc, origDst, seg, nil
}
