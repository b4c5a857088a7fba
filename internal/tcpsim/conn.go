package tcpsim

import (
	"fmt"
)

// Conn is one endpoint of a TCP connection. The API is non-blocking: Write
// queues data for transmission, Read drains whatever has arrived, and the
// caller advances the netsim event loop to make progress (e.g. with
// net.RunUntil(func() bool { return conn.Readable() > 0 })).
type Conn struct {
	stack      *Stack
	key        connKey
	state      State
	remoteAddr string
	listener   *Listener

	// send side
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next sequence to send
	// inFlight holds the sequence-consuming segments not yet acknowledged,
	// in sequence order; each Payload aliases the segment's wire packet.
	inFlight []Segment
	rtoArmed bool
	// onRTOFn is c.onRTO, bound once so arming the timer allocates nothing.
	onRTOFn func()
	// rtoBackoff doubles on stalled timeouts and resets on ACK progress.
	rtoBackoff int
	// rtoLastUna detects progress between timer firings.
	rtoLastUna uint32

	// receive side
	rcvNxt  uint32
	recvBuf []byte
	peerFin bool

	// OnReadable, when set, fires whenever new data is appended to the
	// receive buffer.
	OnReadable func()
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.state == StateEstablished || c.state == StateCloseWait }

// Closed reports whether the connection is fully closed or reset.
func (c *Conn) Closed() bool { return c.state == StateClosed }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (string, uint16) { return c.remoteAddr, c.key.remotePort }

// Readable returns the number of buffered received bytes.
func (c *Conn) Readable() int { return len(c.recvBuf) }

// PeerClosed reports whether the peer sent FIN (EOF after draining).
func (c *Conn) PeerClosed() bool { return c.peerFin }

// Read drains every buffered byte. The returned slice is handed over: the
// connection never touches it again, so the caller may keep or modify it.
func (c *Conn) Read() []byte {
	out := c.recvBuf
	c.recvBuf = nil
	return out
}

// Write queues data on the connection, segmenting at MSS. Each MSS slice is
// copied once, straight into its wire packet; Write never retains b, so the
// caller may reuse it as soon as Write returns.
func (c *Conn) Write(b []byte) error {
	if !c.Established() {
		return fmt.Errorf("tcpsim: write on %v connection", c.state)
	}
	for len(b) > 0 {
		n := len(b)
		if n > MSS {
			n = MSS
		}
		c.sendFlags(FlagACK|FlagPSH, b[:n])
		b = b[n:]
	}
	return nil
}

// Close sends FIN. Data already queued is still retransmitted as needed.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait
		c.sendFlags(FlagFIN|FlagACK, nil)
	case StateCloseWait:
		c.state = StateClosed
		c.sendFlags(FlagFIN|FlagACK, nil)
		c.teardown()
	case StateClosed:
	default:
		c.state = StateClosed
		c.teardown()
	}
}

// Abort sends RST and drops the connection.
func (c *Conn) Abort() {
	c.sendFlags(FlagRST|FlagACK, nil)
	c.state = StateClosed
	c.teardown()
}

func (c *Conn) teardown() {
	delete(c.stack.conns, c.key)
}

// sendFlags transmits a segment, consuming one sequence number for SYN and
// FIN. The payload is copied into the encoded packet, and the segment kept
// for retransmission points at that copy, never at the caller's bytes. The
// packet is the only allocation: the segment itself lives on the stack and
// is stored by value when it must be kept.
func (c *Conn) sendFlags(flags uint8, payload []byte) {
	seg := Segment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.sndNxt,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  65535,
		Payload: payload,
	}
	consumed := uint32(len(payload))
	if flags&(FlagSYN|FlagFIN) != 0 {
		consumed++
	}
	c.sndNxt += consumed
	pkt := seg.Encode(c.stack.host.Addr(), c.remoteAddr)
	seg.Payload = pkt[segHeaderLen:]
	if consumed > 0 {
		c.track(seg)
	}
	c.stack.transmit(c.remoteAddr, &seg, pkt)
}

// track adds a sequence-consuming segment to the retransmission queue.
func (c *Conn) track(seg Segment) {
	c.inFlight = append(c.inFlight, seg)
	c.armRTO()
}

func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.rtoLastUna = c.sndUna
	timeout := c.stack.RetransmitTimeout << uint(c.rtoBackoff)
	if c.onRTOFn == nil {
		c.onRTOFn = c.onRTO
	}
	c.stack.net.Schedule(timeout, c.onRTOFn)
}

// onRTO fires the retransmission timer. If ACKs made progress since arming,
// the peer is alive and draining a long burst: just re-arm. Otherwise
// retransmit only the oldest unacked segment (not the whole window — a
// go-back-N blast on a long-fat link melts into a retransmission storm) and
// back off exponentially. The timer re-arms only while data remains in
// flight, so a drained simulation terminates.
func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.state == StateClosed || len(c.inFlight) == 0 {
		return
	}
	if c.sndUna != c.rtoLastUna {
		c.rtoBackoff = 0
		c.armRTO()
		return
	}
	// Refresh the cumulative ack and re-encode into a fresh packet: the
	// original one belongs to netsim (and possibly a receiver) and is never
	// written again.
	seg := &c.inFlight[0]
	seg.Ack = c.rcvNxt
	c.stack.sendSegment(c.remoteAddr, seg)
	if c.rtoBackoff < 4 {
		c.rtoBackoff++
	}
	c.armRTO()
}

// handleSegment is the per-connection receive path.
func (c *Conn) handleSegment(seg *Segment) {
	if seg.Flags&FlagRST != 0 {
		c.state = StateClosed
		c.teardown()
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.ackUpTo(seg.Ack)
			c.state = StateEstablished
			c.sendFlags(FlagACK, nil)
		}
		return

	case StateSynReceived:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.ackUpTo(seg.Ack)
			c.state = StateEstablished
			if c.listener != nil {
				if c.listener.OnAccept != nil {
					c.listener.OnAccept(c)
				} else {
					c.listener.backlog = append(c.listener.backlog, c)
				}
			}
			// Fall through: the ACK completing the handshake may carry data.
		} else {
			return
		}
	}

	if seg.Flags&FlagACK != 0 {
		c.ackUpTo(seg.Ack)
	}

	advanced := false
	if len(seg.Payload) > 0 {
		switch {
		case seg.Seq == c.rcvNxt:
			c.recvBuf = append(c.recvBuf, seg.Payload...)
			c.rcvNxt += uint32(len(seg.Payload))
			advanced = true
			if c.OnReadable != nil {
				c.OnReadable()
			}
		case seqLess(seg.Seq, c.rcvNxt):
			// Duplicate (retransmission already consumed): re-ack below.
		default:
			// Out-of-order segment: dropped; the peer's RTO recovers. A
			// full reassembly queue is unnecessary for the in-order links
			// this simulator models.
		}
		// Acknowledge received data (or re-ack duplicates).
		c.sendFlags(FlagACK, nil)
	}

	if seg.Flags&FlagFIN != 0 && (seg.Seq == c.rcvNxt || advanced) {
		c.rcvNxt++
		c.peerFin = true
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			c.state = StateClosed
		}
		c.sendFlags(FlagACK, nil)
		if c.state == StateClosed {
			c.teardown()
		}
	}
}

// ackUpTo drops acknowledged segments from the retransmission queue.
func (c *Conn) ackUpTo(ack uint32) {
	if seqLess(c.sndUna, ack) {
		c.sndUna = ack
		c.rtoBackoff = 0
	}
	// inFlight is in sequence order and acks are cumulative, so the
	// acknowledged segments are a prefix.
	n := 0
	for i := range c.inFlight {
		seg := &c.inFlight[i]
		end := seg.Seq + uint32(len(seg.Payload))
		if seg.Flags&(FlagSYN|FlagFIN) != 0 {
			end++
		}
		if seqLess(ack, end) {
			break
		}
		n++
	}
	clear(c.inFlight[:n])
	if n == len(c.inFlight) {
		// Everything is acknowledged: reuse the backing array from its
		// start rather than creep along it.
		c.inFlight = c.inFlight[:0]
		return
	}
	c.inFlight = c.inFlight[n:]
}

// seqLess compares sequence numbers with wraparound (RFC 1982 style).
func seqLess(a, b uint32) bool { return int32(b-a) > 0 }
