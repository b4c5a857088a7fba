// Package core is TinMan's orchestration layer: it wires the VM, the taint
// policies, the DSM offloading engine, the cor store, the policy engine, the
// simplified TLS stack and the simulated TCP/network substrate into a
// working device + trusted-node pair, and drives the on-demand
// security-oriented offloading loop of §3.
package core

import (
	"encoding/binary"
	"fmt"

	"tinman/internal/obs"
	"tinman/internal/tcpsim"
)

// Control-plane message types exchanged between the device and the trusted
// node over their TCP control connection.
const (
	// msgInstall ships an app's source (the dex transfer at warm-up, §6.2).
	msgInstall uint8 = iota + 1
	// msgInstallOK acknowledges installation (carrying the node-computed
	// hash for cross-checking).
	msgInstallOK
	// msgMigration carries a dsm.Migration in either direction.
	msgMigration
	// msgDenied reports a policy denial for an attempted migration or
	// injection; payload is the denial text.
	msgDenied
	// msgCatalog requests the device-visible cor catalog.
	msgCatalog
	// msgCatalogReply returns the catalog JSON.
	msgCatalogReply
	// msgSSLInject ships an SSL session state + target for session
	// injection (§3.2); the node replies msgSSLInjectOK or msgDenied.
	msgSSLInject
	// msgSSLInjectOK confirms the node is armed for payload replacement.
	msgSSLInjectOK
	// msgTagged wraps any request message with a device-minted request ID
	// so retries after an ambiguous failure (request sent, reply lost)
	// execute at most once on the node. Payload: u8 idLen | id | u8 inner
	// type | inner payload.
	msgTagged
	// msgTaggedTrace is msgTagged plus the requesting span's identity, so
	// node-side spans join the device-minted trace. Payload: u8 idLen | id |
	// 8B trace ID | 8B span ID | u8 inner type | inner payload. Devices emit
	// it only while tracing is active — untraced runs keep the msgTagged
	// wire bytes unchanged.
	msgTaggedTrace
	// msgWarmupChunk ships one background dsm.WarmupChunk (the speculative
	// pre-migration pipeline). Fire-and-forget from the device's
	// perspective: it is never wrapped in msgTagged and never retried —
	// losing a chunk just degrades to the cold path. Payload: u8 appLen |
	// app name | encoded chunk.
	msgWarmupChunk
	// msgWarmupAck acknowledges one warm-up chunk out of band (it is not a
	// reply to any pending tagged request; the device routes it to the
	// warm-up driver, not the request queue). Payload: u8 appLen | app name
	// | u64 epoch | u64 index | u8 ok.
	msgWarmupAck
	// msgWarmMiss rejects a warm-path migration whose epoch the node does
	// not hold ready; the device resets its DSM warm state and resends the
	// full snapshot. Payload: the refusal text.
	msgWarmMiss
)

// Frame is one length-prefixed control or handshake message: u32 length |
// u8 type | payload. The same framing carries the TLS handshake between
// clients and origin servers, so the apps package shares it.
type Frame struct {
	Type    uint8
	Payload []byte
}

// frame is the package-internal shorthand.
type frame = Frame

// frameHeaderLen is the u32 length plus the type byte.
const frameHeaderLen = 5

// maxFrameLen bounds a frame's declared length (type byte plus payload);
// anything larger is garbage.
const maxFrameLen = 64 << 20

// maxFrameAhead bounds how far past the bytes actually received a frame
// header can make the reader allocate, so a garbage header claiming
// maxFrameLen costs at most this much until the bytes arrive.
const maxFrameAhead = 1 << 20

// EncodeFrame produces the wire form of a frame.
func EncodeFrame(t uint8, payload []byte) []byte {
	return encodeFrame(frame{Type: t, Payload: payload})
}

func encodeFrame(f frame) []byte {
	buf := beginFrame(make([]byte, 0, frameHeaderLen+len(f.Payload)), f.Type)
	return finishFrame(append(buf, f.Payload...))
}

// beginFrame appends a frame header whose length finishFrame fills in once
// the payload has been appended after it. The frame must start at dst[0].
func beginFrame(dst []byte, t uint8) []byte { return append(dst, 0, 0, 0, 0, t) }

// finishFrame sets the length of the frame that fills buf.
func finishFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// FrameReader incrementally splits frames out of a TCP byte stream, copying
// only what it must:
//
//   - Feed takes ownership of the slice it is given; the caller must not
//     touch it afterwards.
//   - A frame that arrives inside one fed slice is never copied. A frame
//     that straddles feeds is copied once, into a buffer grown to exactly
//     that frame's length once its header has been read.
//   - Payloads returned by Next alias the reader's buffer. They are capped
//     sub-slices and no later Feed writes over them, so they stay valid for
//     as long as the caller holds them.
type FrameReader struct {
	buf []byte // unconsumed bytes; spare capacity beyond len is the reader's
}

// Feed hands newly received bytes to the reader, which takes ownership.
func (r *FrameReader) Feed(b []byte) {
	if len(r.buf) == 0 {
		r.buf = b
		return
	}
	if held := len(r.buf) + len(b); held > cap(r.buf) {
		size := held
		if len(r.buf) >= 4 {
			if end := 4 + int(binary.BigEndian.Uint32(r.buf)); end > size {
				size = min(end, held+maxFrameAhead)
			}
		}
		grown := make([]byte, len(r.buf), size)
		copy(grown, r.buf)
		r.buf = grown
	}
	r.buf = append(r.buf, b...)
}

// Rest returns a copy of the unconsumed buffered bytes (used when a stream
// switches from framed handshake messages to self-delimiting TLS records).
func (r *FrameReader) Rest() []byte { return append([]byte(nil), r.buf...) }

// Next extracts one complete frame, or returns false. The payload aliases
// the reader's buffer (see FrameReader).
func (r *FrameReader) Next() (Frame, bool, error) {
	if len(r.buf) < 4 {
		return Frame{}, false, nil
	}
	n := binary.BigEndian.Uint32(r.buf)
	if n == 0 || n > maxFrameLen {
		return Frame{}, false, fmt.Errorf("core: implausible frame length %d", n)
	}
	end := 4 + int(n)
	if len(r.buf) < end {
		return Frame{}, false, nil
	}
	f := Frame{Type: r.buf[4], Payload: r.buf[frameHeaderLen:end:end]}
	r.buf = r.buf[end:]
	return f, true, nil
}

// lower-case aliases used by the package internals.
type frameReader = FrameReader

func (r *frameReader) feed(b []byte)              { r.Feed(b) }
func (r *frameReader) next() (frame, bool, error) { return r.Next() }

// sendFrame writes a frame to a connection.
func sendFrame(c *tcpsim.Conn, f frame) error {
	return c.Write(encodeFrame(f))
}

// encodeTagged builds the wire frame wrapping an inner request with a
// request ID for at-most-once delivery. IDs are device-minted and at most
// 255 bytes.
func encodeTagged(id string, f frame) ([]byte, error) {
	if len(id) == 0 || len(id) > 255 {
		return nil, fmt.Errorf("core: tagged request ID length %d out of range", len(id))
	}
	buf := beginFrame(make([]byte, 0, frameHeaderLen+2+len(id)+len(f.Payload)), msgTagged)
	buf = append(buf, byte(len(id)))
	buf = append(buf, id...)
	buf = append(buf, f.Type)
	return finishFrame(append(buf, f.Payload...)), nil
}

// encodeTaggedTrace is encodeTagged carrying the requesting span's identity.
func encodeTaggedTrace(id string, trace obs.TraceID, span obs.SpanID, f frame) ([]byte, error) {
	if len(id) == 0 || len(id) > 255 {
		return nil, fmt.Errorf("core: tagged request ID length %d out of range", len(id))
	}
	buf := beginFrame(make([]byte, 0, frameHeaderLen+18+len(id)+len(f.Payload)), msgTaggedTrace)
	buf = append(buf, byte(len(id)))
	buf = append(buf, id...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(trace))
	buf = binary.BigEndian.AppendUint64(buf, uint64(span))
	buf = append(buf, f.Type)
	return finishFrame(append(buf, f.Payload...)), nil
}

// decodeTaggedTrace unwraps a msgTaggedTrace payload into the request ID,
// the propagated trace context, and the inner frame.
func decodeTaggedTrace(payload []byte) (string, obs.TraceID, obs.SpanID, frame, error) {
	if len(payload) < 18 {
		return "", 0, 0, frame{}, fmt.Errorf("core: short traced tagged frame")
	}
	n := int(payload[0])
	if len(payload) < 18+n {
		return "", 0, 0, frame{}, fmt.Errorf("core: truncated traced tagged frame")
	}
	id := string(payload[1 : 1+n])
	trace := obs.TraceID(binary.BigEndian.Uint64(payload[1+n:]))
	span := obs.SpanID(binary.BigEndian.Uint64(payload[9+n:]))
	inner := frame{Type: payload[17+n], Payload: payload[18+n:]}
	return id, trace, span, inner, nil
}

// beginWarmupChunk starts a msgWarmupChunk frame (u8 appLen | app | chunk)
// in dst, ready for the chunk's encoding to be appended straight after it
// and the frame closed with finishFrame.
func beginWarmupChunk(dst []byte, app string) ([]byte, error) {
	if len(app) == 0 || len(app) > 255 {
		return nil, fmt.Errorf("core: warmup app name length %d out of range", len(app))
	}
	dst = append(beginFrame(dst, msgWarmupChunk), byte(len(app)))
	return append(dst, app...), nil
}

// decodeWarmupChunk splits a msgWarmupChunk payload; the chunk bytes alias
// the payload.
func decodeWarmupChunk(payload []byte) (string, []byte, error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("core: short warmup chunk frame")
	}
	n := int(payload[0])
	if n == 0 || len(payload) < 1+n {
		return "", nil, fmt.Errorf("core: truncated warmup chunk app name")
	}
	return string(payload[1 : 1+n]), payload[1+n:], nil
}

// encodeWarmupAck builds a msgWarmupAck frame: u8 appLen | app | u64 epoch |
// u64 index | u8 ok.
func encodeWarmupAck(app string, epoch uint64, index int, ok bool) frame {
	p := make([]byte, 0, 18+len(app))
	p = append(p, byte(len(app)))
	p = append(p, app...)
	var u [16]byte
	binary.BigEndian.PutUint64(u[:8], epoch)
	binary.BigEndian.PutUint64(u[8:], uint64(index))
	p = append(p, u[:]...)
	if ok {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	return frame{Type: msgWarmupAck, Payload: p}
}

// decodeWarmupAck splits a msgWarmupAck payload.
func decodeWarmupAck(payload []byte) (app string, epoch uint64, index int, ok bool, err error) {
	if len(payload) < 18 {
		return "", 0, 0, false, fmt.Errorf("core: short warmup ack frame")
	}
	n := int(payload[0])
	if len(payload) != 18+n {
		return "", 0, 0, false, fmt.Errorf("core: malformed warmup ack frame")
	}
	app = string(payload[1 : 1+n])
	epoch = binary.BigEndian.Uint64(payload[1+n:])
	index = int(binary.BigEndian.Uint64(payload[9+n:]))
	ok = payload[17+n] != 0
	return app, epoch, index, ok, nil
}

// decodeTagged unwraps a msgTagged payload into its request ID and inner
// frame.
func decodeTagged(payload []byte) (string, frame, error) {
	if len(payload) < 2 {
		return "", frame{}, fmt.Errorf("core: short tagged frame")
	}
	n := int(payload[0])
	if len(payload) < 2+n {
		return "", frame{}, fmt.Errorf("core: truncated tagged frame ID")
	}
	id := string(payload[1 : 1+n])
	inner := frame{Type: payload[1+n], Payload: payload[2+n:]}
	return id, inner, nil
}
