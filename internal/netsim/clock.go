// Package netsim provides a deterministic, discrete-event network simulator
// used as the testbed substrate for TinMan experiments.
//
// The original paper evaluates on a Galaxy Nexus connected over Wi-Fi and 3G
// to a PC trusted node. This package replaces that physical testbed with a
// virtual-time network: hosts exchange packets over links whose latency and
// bandwidth follow configurable profiles, and a single event loop advances a
// virtual clock. Everything is single-threaded and seeded, so experiments are
// exactly reproducible and run in microseconds of wall time regardless of how
// many simulated seconds they span.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is the simulated monotonic clock. The zero value starts at time 0.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time since the start of the simulation.
func (c *Clock) Now() time.Duration { return c.now }

// advance moves the clock forward. It panics on negative deltas: virtual
// time, like real time, only moves forward.
func (c *Clock) advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: clock moved backwards by %v", d))
	}
	c.now += d
}

// event is one entry of the simulator's event queue: a Schedule callback,
// or a packet arriving at a host. Arrivals are plain data rather than
// closures, so moving a packet through the queue allocates nothing.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func() // a Schedule callback; nil for a packet arrival
	// A packet arrival delivers pkt to dst, over link in direction dir, or
	// over the host's implicit loopback when link is nil.
	pkt  *Packet
	dst  *Host
	link *Link
	dir  int
}

// before orders events by (at, seq). seq is unique, so the order is total
// and every heap pops the same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of event values ordered by before.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // drop references held by the vacated slot
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return ev
}

// Net is the simulation universe: a clock, an event queue, and the set of
// hosts and links. All methods must be called from a single goroutine.
type Net struct {
	clock  Clock
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	hosts  map[string]*Host // keyed by address
	links  []*Link
	nmsgs  uint64 // total packets delivered, for stats
	nbytes uint64 // total payload bytes delivered
	tracer *Tracer
}

// New creates an empty simulated network. The seed makes loss and jitter
// deterministic; the same seed always yields the same run.
func New(seed int64) *Net {
	return &Net{
		rng:   rand.New(rand.NewSource(seed)),
		hosts: make(map[string]*Host),
	}
}

// Now returns the current virtual time.
func (n *Net) Now() time.Duration { return n.clock.Now() }

// Rand exposes the simulation's seeded random source so that other layers
// (e.g. TCP initial sequence numbers) stay deterministic per seed.
func (n *Net) Rand() *rand.Rand { return n.rng }

// Schedule runs fn after delay of virtual time. Events scheduled for the same
// instant run in scheduling order.
func (n *Net) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	n.enqueue(event{at: n.clock.Now() + delay, fn: fn})
}

// enqueue stamps ev with the next sequence number and queues it.
func (n *Net) enqueue(ev event) {
	n.seq++
	ev.seq = n.seq
	n.queue.push(ev)
}

// fire advances the clock to ev and runs it.
func (n *Net) fire(ev *event) {
	if ev.at > n.clock.Now() {
		n.clock.advance(ev.at - n.clock.Now())
	}
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.link != nil:
		ev.link.arrive(ev.dir, ev.dst, ev.pkt)
	default:
		ev.dst.loopback(ev.pkt)
	}
}

// Advance moves virtual time forward by d without processing events scheduled
// beyond the new time. It is used to account for local compute time (e.g. VM
// execution on the device) between network interactions; any events that
// would have fired during d are processed in order.
func (n *Net) Advance(d time.Duration) {
	deadline := n.clock.Now() + d
	for len(n.queue) > 0 && n.queue[0].at <= deadline {
		ev := n.queue.pop()
		n.fire(&ev)
	}
	if deadline > n.clock.Now() {
		n.clock.advance(deadline - n.clock.Now())
	}
}

// Step processes the next pending event, advancing the clock to its time.
// It reports whether an event was processed.
func (n *Net) Step() bool {
	if len(n.queue) == 0 {
		return false
	}
	ev := n.queue.pop()
	n.fire(&ev)
	return true
}

// Run processes events until the queue drains.
func (n *Net) Run() {
	for n.Step() {
	}
}

// RunUntil processes events until cond returns true or the queue drains.
// It reports whether cond was satisfied.
func (n *Net) RunUntil(cond func() bool) bool {
	for !cond() {
		if !n.Step() {
			return cond()
		}
	}
	return true
}

// RunFor processes events for d of virtual time, then stops. Events scheduled
// beyond the horizon stay queued.
func (n *Net) RunFor(d time.Duration) { n.Advance(d) }

// Stats reports totals since the simulation started.
func (n *Net) Stats() (packets, bytes uint64) { return n.nmsgs, n.nbytes }
