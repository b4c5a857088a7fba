package tlssim

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"

	"tinman/internal/obs"
)

// Session is an established TLS session: two directional half-connections.
// Records sealed by Seal travel in the local party's write direction; Open
// consumes records from the peer.
type Session struct {
	version  Version
	suite    Suite
	isClient bool
	out, in  *halfConn
}

// Version returns the negotiated protocol version.
func (s *Session) Version() Version { return s.version }

// Suite returns the negotiated cipher suite.
func (s *Session) Suite() Suite { return s.suite }

// IsClient reports whether this side played the client role.
func (s *Session) IsClient() bool { return s.isClient }

// Seal encrypts one record for the peer.
func (s *Session) Seal(typ RecordType, plaintext []byte) ([]byte, error) {
	return s.out.seal(typ, plaintext)
}

// Open decrypts one record from the peer; rest is any trailing data after
// the record (records are often coalesced in one TCP segment).
func (s *Session) Open(wire []byte) (RecordType, []byte, []byte, error) {
	return s.in.open(wire)
}

// WriteSeq and ReadSeq expose sequence numbers for tests and accounting.
func (s *Session) WriteSeq() uint64 { return s.out.seq }

// ReadSeq is the receive-direction sequence number.
func (s *Session) ReadSeq() uint64 { return s.in.seq }

// HalfState is the exportable state of one direction.
type HalfState struct {
	Seq     uint64 `json:"seq"`
	MACKey  []byte `json:"mac_key"`
	Key     []byte `json:"key"`
	RC4S    []byte `json:"rc4_s,omitempty"`
	RC4I    uint8  `json:"rc4_i,omitempty"`
	RC4J    uint8  `json:"rc4_j,omitempty"`
	CBCLast []byte `json:"cbc_last,omitempty"`
}

// State is a full session snapshot: everything another party needs to
// continue the session. This is precisely what SSL session injection ships
// to the trusted node (§3.2) — and, when the suite is CBC with implicit IVs,
// CBCLast is the ciphertext block whose round trip leaks plaintext (fig 7).
type State struct {
	Version  Version   `json:"version"`
	Suite    Suite     `json:"suite"`
	IsClient bool      `json:"is_client"`
	Out      HalfState `json:"out"`
	In       HalfState `json:"in"`
}

// ObsFields summarizes a session state for span attribution: negotiated
// version, cipher suite and the write-direction sequence number. The method
// is the only sanctioned bridge from State to the observability layer —
// key material (MACKey, Key, RC4S, CBCLast) has no Field constructor, so a
// span structurally cannot carry it.
func (st *State) ObsFields() []obs.Field {
	// One combined note: JSON-object exporters key fields by kind, so two
	// Note fields on the same span would collide.
	return []obs.Field{
		obs.Note(st.Version.String() + " " + st.Suite.String()),
		obs.Count(int64(st.Out.Seq)),
	}
}

// Export snapshots the session. The session remains usable; the snapshot is
// independent.
func (s *Session) Export() *State {
	return &State{
		Version:  s.version,
		Suite:    s.suite,
		IsClient: s.isClient,
		Out:      exportHalf(s.out),
		In:       exportHalf(s.in),
	}
}

func exportHalf(hc *halfConn) HalfState {
	h := HalfState{
		Seq:    hc.seq,
		MACKey: append([]byte(nil), hc.macKey...),
		Key:    append([]byte(nil), hc.key...),
	}
	if hc.rc4 != nil {
		h.RC4S = append([]byte(nil), hc.rc4.S[:]...)
		h.RC4I, h.RC4J = hc.rc4.I, hc.rc4.J
	}
	if hc.cbcLast != nil {
		h.CBCLast = append([]byte(nil), hc.cbcLast...)
	}
	return h
}

// Resume reconstructs a live session from a snapshot. rnd supplies explicit
// IVs; nil means crypto/rand.
func Resume(st *State, rnd io.Reader) (*Session, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	out, err := resumeHalf(st, &st.Out, rnd)
	if err != nil {
		return nil, err
	}
	in, err := resumeHalf(st, &st.In, rnd)
	if err != nil {
		return nil, err
	}
	return &Session{version: st.Version, suite: st.Suite, isClient: st.IsClient, out: out, in: in}, nil
}

func resumeHalf(st *State, h *HalfState, rnd io.Reader) (*halfConn, error) {
	hc := &halfConn{
		version: st.Version,
		suite:   st.Suite,
		macKey:  append([]byte(nil), h.MACKey...),
		key:     append([]byte(nil), h.Key...),
		seq:     h.Seq,
		rand:    rnd,
	}
	switch st.Suite {
	case SuiteRC4SHA256:
		if len(h.RC4S) != 256 {
			return nil, fmt.Errorf("tlssim: resume: RC4 state has %d bytes, want 256", len(h.RC4S))
		}
		rc := &rc4State{I: h.RC4I, J: h.RC4J}
		copy(rc.S[:], h.RC4S)
		hc.rc4 = rc
	case SuiteAESCBCSHA256:
		hc.cbcLast = append([]byte(nil), h.CBCLast...)
		if st.Version == TLS10 && len(hc.cbcLast) == 0 {
			return nil, fmt.Errorf("tlssim: resume: TLS1.0 CBC state missing chained IV")
		}
	default:
		return nil, fmt.Errorf("tlssim: resume: unknown suite %v", st.Suite)
	}
	return hc, nil
}

// Marshal serializes the state for transport to the trusted node.
func (st *State) Marshal() ([]byte, error) { return json.Marshal(st) }

// UnmarshalState parses a serialized session state. The node caches the
// parsed state per distinct blob (node's stateCache), so this runs once per
// session rather than once per reseal.
func UnmarshalState(b []byte) (*State, error) {
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("tlssim: unmarshal session state: %v", err)
	}
	return &st, nil
}
