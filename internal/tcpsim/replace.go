package tcpsim

import (
	"fmt"

	"tinman/internal/netsim"
	"tinman/internal/obs"
)

// Replacer is the trusted node's payload-replacement engine (§3.3, fig 8).
// It receives redirected, encapsulated segments, asks the Rewrite hook for a
// substitute payload (the cor-bearing ciphertext sealed with the injected
// SSL session), and forwards the reframed segment to the original
// destination with the original TCP header — source address included, which
// is why the trusted node's host must not egress-filter (§5.4).
type Replacer struct {
	host *netsim.Host
	// Rewrite maps the captured payload to its replacement. The returned
	// payload must have exactly the original length: TCP sequence numbers
	// on both sides already account for the original bytes.
	Rewrite func(origSrc, origDst string, seg *Segment) ([]byte, error)
	// OnError observes rewrite/forward failures (they otherwise only drop
	// the packet, as a middlebox would).
	OnError func(error)
	// Obs, when set, records every dropped segment as an instant
	// tcp_replace error event — middlebox-style silent drops are the kind
	// of failure a span tree otherwise never shows. Nil-safe.
	Obs *obs.Tracer
	// Replaced counts successfully reframed segments.
	Replaced uint64
	// next receives non-redirect packets (chained handler), letting the
	// replacer share a host with a TCP stack.
	next func(*netsim.Packet)
}

// NewReplacer installs a replacement engine on the host, chaining in front
// of any existing packet handler (typically the node's own TCP stack).
func NewReplacer(host *netsim.Host, rewrite func(origSrc, origDst string, seg *Segment) ([]byte, error)) *Replacer {
	r := &Replacer{host: host, Rewrite: rewrite}
	// Chain in front of whatever already handles this host's packets
	// (typically the trusted node's own TCP stack).
	r.next = host.Handler()
	host.Handle(func(pkt *netsim.Packet) {
		if isEncap(pkt.Payload) {
			r.handleRedirect(pkt)
			return
		}
		if r.next != nil {
			r.next(pkt)
		}
	})
	return r
}

func (r *Replacer) fail(err error) {
	r.Obs.Event(obs.PhaseTCPReplace, obs.Err(obs.ErrInternal), obs.Outcome(false))
	if r.OnError != nil {
		r.OnError(err)
	}
}

func (r *Replacer) handleRedirect(pkt *netsim.Packet) {
	origSrc, origDst, seg, err := decapsulate(pkt.Payload)
	if err != nil {
		r.fail(fmt.Errorf("tcpsim: replacer: %v", err))
		return
	}
	newPayload, err := r.Rewrite(origSrc, origDst, &seg)
	if err != nil {
		r.fail(fmt.Errorf("tcpsim: replacer: rewrite: %v", err))
		return
	}
	if len(newPayload) != len(seg.Payload) {
		r.fail(fmt.Errorf("tcpsim: replacer: replacement length %d != original %d (would desynchronize TCP)",
			len(newPayload), len(seg.Payload)))
		return
	}
	// Reframe: same header, new payload, fresh checksum (step 4 of fig 8).
	out := &Segment{
		SrcPort: seg.SrcPort,
		DstPort: seg.DstPort,
		Seq:     seg.Seq,
		Ack:     seg.Ack,
		Flags:   seg.Flags,
		Window:  seg.Window,
		Payload: newPayload,
	}
	buf := out.Encode(origSrc, origDst)
	// Forward with the *device's* source address: the origin server must
	// see the packet as coming from the client. SendRaw performs the
	// spoofed send; an egress-filtered trusted node fails here.
	if err := r.host.SendRaw(&netsim.Packet{Src: origSrc, Dst: origDst, Payload: buf}); err != nil {
		r.fail(fmt.Errorf("tcpsim: replacer: forward: %v", err))
		return
	}
	r.Replaced++
}
