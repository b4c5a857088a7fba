package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvances(t *testing.T) {
	n := New(1)
	if n.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", n.Now())
	}
	n.Advance(5 * time.Millisecond)
	if n.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want 5ms", n.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	n := New(1)
	var got []int
	n.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	n.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	n.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	n.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if n.Now() != 3*time.Millisecond {
		t.Fatalf("clock at %v after run, want 3ms", n.Now())
	}
}

func TestScheduleFIFOAtSameInstant(t *testing.T) {
	n := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		n.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	n.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	n := New(1)
	fired := 0
	n.Schedule(time.Millisecond, func() {
		n.Schedule(time.Millisecond, func() { fired++ })
	})
	n.Run()
	if fired != 1 {
		t.Fatalf("nested event fired %d times, want 1", fired)
	}
	if n.Now() != 2*time.Millisecond {
		t.Fatalf("clock at %v, want 2ms", n.Now())
	}
}

func TestAdvanceProcessesDueEvents(t *testing.T) {
	n := New(1)
	fired := false
	n.Schedule(time.Millisecond, func() { fired = true })
	n.Advance(500 * time.Microsecond)
	if fired {
		t.Fatal("event fired before its time")
	}
	n.Advance(time.Millisecond)
	if !fired {
		t.Fatal("event did not fire during Advance past its time")
	}
	if n.Now() != 1500*time.Microsecond {
		t.Fatalf("clock at %v, want 1.5ms", n.Now())
	}
}

func TestRunUntil(t *testing.T) {
	n := New(1)
	count := 0
	for i := 0; i < 5; i++ {
		n.Schedule(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	ok := n.RunUntil(func() bool { return count >= 3 })
	if !ok || count != 3 {
		t.Fatalf("RunUntil stopped at count=%d ok=%v, want 3 true", count, ok)
	}
	ok = n.RunUntil(func() bool { return count >= 100 })
	if ok {
		t.Fatal("RunUntil reported success on unsatisfiable condition")
	}
}

func TestHostDelivery(t *testing.T) {
	n := New(1)
	a := n.AddHost("10.0.0.1")
	b := n.AddHost("10.0.0.2")
	n.Connect(a, b, WiFi)

	var got *Packet
	b.Handle(func(p *Packet) { got = p })
	if err := a.Send(&Packet{Dst: "10.0.0.2", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != "10.0.0.1" || string(got.Payload) != "hello" {
		t.Fatalf("delivered %+v", got)
	}
	if n.Now() < WiFi.Latency {
		t.Fatalf("delivery took %v, want at least link latency %v", n.Now(), WiFi.Latency)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	n := New(1)
	a := n.AddHost("10.0.0.1")
	got := 0
	a.Handle(func(p *Packet) { got++ })
	if err := a.Send(&Packet{Dst: "10.0.0.1", Payload: []byte("self")}); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Fatalf("loopback delivered %d packets, want 1", got)
	}
}

func TestNoRouteError(t *testing.T) {
	n := New(1)
	a := n.AddHost("10.0.0.1")
	n.AddHost("10.0.0.2")
	if err := a.Send(&Packet{Dst: "10.0.0.2"}); err == nil {
		t.Fatal("expected no-route error on unlinked hosts")
	}
}

func TestEgressFilterBlocksSpoofing(t *testing.T) {
	n := New(1)
	a := n.AddHost("10.0.0.1")
	b := n.AddHost("10.0.0.2")
	n.Connect(a, b, Wired)

	a.SetEgressFilter(true)
	err := a.SendRaw(&Packet{Src: "1.2.3.4", Dst: "10.0.0.2"})
	if err == nil {
		t.Fatal("egress filter should reject spoofed source")
	}

	a.SetEgressFilter(false)
	var src string
	b.Handle(func(p *Packet) { src = p.Src })
	if err := a.SendRaw(&Packet{Src: "1.2.3.4", Dst: "10.0.0.2"}); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if src != "1.2.3.4" {
		t.Fatalf("spoofed packet arrived with src %q, want 1.2.3.4", src)
	}
}

func TestThreeGPromotionDelay(t *testing.T) {
	n := New(7)
	a := n.AddHost("dev")
	b := n.AddHost("node")
	prof := ThreeG
	prof.Jitter = 0
	n.Connect(a, b, prof)
	b.Handle(func(p *Packet) {})

	// First packet pays the promotion delay.
	a.Send(&Packet{Dst: "node", Payload: []byte("x")})
	n.Run()
	first := n.Now()
	if first < prof.PromotionDelay {
		t.Fatalf("first packet arrived in %v, want at least promotion delay %v", first, prof.PromotionDelay)
	}

	// A packet while the radio is hot does not.
	start := n.Now()
	a.Send(&Packet{Dst: "node", Payload: []byte("y")})
	n.Run()
	hot := n.Now() - start
	if hot >= prof.PromotionDelay {
		t.Fatalf("hot-radio packet took %v, should avoid promotion delay %v", hot, prof.PromotionDelay)
	}

	// After the idle timeout the promotion delay returns.
	n.Advance(prof.IdleTimeout + time.Second)
	start = n.Now()
	a.Send(&Packet{Dst: "node", Payload: []byte("z")})
	n.Run()
	cold := n.Now() - start
	if cold < prof.PromotionDelay {
		t.Fatalf("post-idle packet took %v, want at least promotion delay", cold)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	n := New(1)
	a := n.AddHost("a")
	b := n.AddHost("b")
	prof := Profile{Name: "slow", Latency: 0, Bandwidth: 1000} // 1 KB/s
	n.Connect(a, b, prof)
	done := 0
	b.Handle(func(p *Packet) { done++ })

	a.Send(&Packet{Dst: "b", Payload: make([]byte, 960)}) // 1000 B on the wire
	n.Run()
	if got := n.Now(); got < time.Second || got > 1100*time.Millisecond {
		t.Fatalf("1000B over 1KB/s took %v, want ~1s", got)
	}

	// Two packets queue behind each other (head-of-line).
	n2 := New(1)
	a2 := n2.AddHost("a")
	b2 := n2.AddHost("b")
	n2.Connect(a2, b2, prof)
	b2.Handle(func(p *Packet) {})
	a2.Send(&Packet{Dst: "b", Payload: make([]byte, 960)})
	a2.Send(&Packet{Dst: "b", Payload: make([]byte, 960)})
	n2.Run()
	if got := n2.Now(); got < 2*time.Second {
		t.Fatalf("two serialized packets took %v, want >= 2s", got)
	}
}

func TestLossDropsPackets(t *testing.T) {
	n := New(42)
	a := n.AddHost("a")
	b := n.AddHost("b")
	l := n.Connect(a, b, Profile{Name: "lossy", Latency: time.Millisecond, Loss: 0.5})
	got := 0
	b.Handle(func(p *Packet) { got++ })
	const sent = 200
	for i := 0; i < sent; i++ {
		a.Send(&Packet{Dst: "b", Payload: []byte{1}})
	}
	n.Run()
	if got == 0 || got == sent {
		t.Fatalf("lossy link delivered %d/%d, want some but not all", got, sent)
	}
	if int(l.Dropped)+got != sent {
		t.Fatalf("dropped %d + delivered %d != sent %d", l.Dropped, got, sent)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate host address should panic")
		}
	}()
	n := New(1)
	n.AddHost("x")
	n.AddHost("x")
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self link should panic")
		}
	}()
	n := New(1)
	a := n.AddHost("x")
	n.Connect(a, a, WiFi)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, uint64) {
		n := New(99)
		a := n.AddHost("a")
		b := n.AddHost("b")
		n.Connect(a, b, ThreeG)
		b.Handle(func(p *Packet) {})
		for i := 0; i < 50; i++ {
			a.Send(&Packet{Dst: "b", Payload: make([]byte, 100)})
		}
		n.Run()
		pk, _ := n.Stats()
		return n.Now(), pk
	}
	t1, p1 := run()
	t2, p2 := run()
	if t1 != t2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%v,%d) vs (%v,%d)", t1, p1, t2, p2)
	}
}

// Property: virtual time never decreases across any sequence of schedules.
func TestClockMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		n := New(3)
		last := time.Duration(0)
		ok := true
		for _, d := range delays {
			n.Schedule(time.Duration(d)*time.Microsecond, func() {
				if n.Now() < last {
					ok = false
				}
				last = n.Now()
			})
		}
		n.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time of a single packet is at least latency plus
// serialization for any payload size.
func TestDeliveryLowerBoundProperty(t *testing.T) {
	prop := func(size uint16) bool {
		n := New(5)
		a := n.AddHost("a")
		b := n.AddHost("b")
		prof := Profile{Latency: 3 * time.Millisecond, Bandwidth: 1e6}
		n.Connect(a, b, prof)
		var at time.Duration = -1
		b.Handle(func(p *Packet) { at = n.Now() })
		pkt := &Packet{Dst: "b", Payload: make([]byte, int(size))}
		ser := time.Duration(float64(pkt.Size()) / prof.Bandwidth * float64(time.Second))
		a.Send(pkt)
		n.Run()
		return at >= prof.Latency+ser
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCallbackAndArrivalSameInstant pins the queue's tie-break across event
// kinds: a Schedule callback and a packet arrival due at the same instant
// fire in the order they were scheduled, whichever comes first.
func TestCallbackAndArrivalSameInstant(t *testing.T) {
	prof := Profile{Name: "fixed", Latency: 3 * time.Millisecond}
	for _, callbackFirst := range []bool{true, false} {
		n := New(1)
		a, b := n.AddHost("a"), n.AddHost("b")
		n.Connect(a, b, prof)
		var got []string
		b.Handle(func(*Packet) { got = append(got, "packet") })
		callback := func() { n.Schedule(prof.Latency, func() { got = append(got, "callback") }) }
		send := func() {
			if err := a.Send(&Packet{Dst: "b", Payload: []byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{"packet", "callback"}
		if callbackFirst {
			callback()
			send()
			want = []string{"callback", "packet"}
		} else {
			send()
			callback()
		}
		n.Run()
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("callback scheduled first=%v: fired %v, want %v", callbackFirst, got, want)
		}
		if n.Now() != prof.Latency {
			t.Fatalf("both events due at %v, clock ended at %v", prof.Latency, n.Now())
		}
	}
}

// TestPacketDeliveryAllocatesNothing guards the value-typed event queue:
// once the queue has grown, sending a packet over a link (or the loopback)
// and running it to delivery allocates nothing inside netsim. The packet
// itself belongs to the caller.
func TestPacketDeliveryAllocatesNothing(t *testing.T) {
	n := New(1)
	a, b := n.AddHost("a"), n.AddHost("b")
	n.Connect(a, b, WiFi)
	delivered := 0
	b.Handle(func(*Packet) { delivered++ })
	a.Handle(func(*Packet) { delivered++ })
	over := &Packet{Dst: "b", Payload: make([]byte, 1400)}
	loop := &Packet{Dst: "a", Payload: make([]byte, 64)}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.Send(over); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(loop); err != nil {
			t.Fatal(err)
		}
		n.Run()
	})
	if allocs != 0 {
		t.Fatalf("send and delivery allocate %.1f objects per run, want 0", allocs)
	}
	if delivered != 2*101 {
		t.Fatalf("delivered %d packets, want %d", delivered, 2*101)
	}
}
