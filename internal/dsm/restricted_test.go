package dsm

import (
	"bytes"
	"errors"
	"testing"

	"tinman/internal/taint"
	"tinman/internal/vm"
)

// collectCorIDs gathers every object ID and cor ID present in a payload's
// object list.
func collectCorIDs(objs []ObjectState) (ids map[uint64]bool, cors map[string]bool) {
	ids, cors = map[uint64]bool{}, map[string]bool{}
	for i := range objs {
		ids[objs[i].ID] = true
		if objs[i].CorID != "" {
			cors[objs[i].CorID] = true
		}
	}
	return ids, cors
}

// TestServerOnlyNeverShipsDifferential is the differential guarantee for
// sensitivity classes: the same device state captured twice — once with the
// cor's bit unrestricted, once with it in the server-only mask — must ship
// the cor object in the first run and provably never ship it (structurally
// or as wire bytes) in the second, across BOTH the warm-up stream and the
// trigger-time migration.
func TestServerOnlyNeverShipsDifferential(t *testing.T) {
	run := func(restricted bool) (wire []byte, ids map[uint64]bool, cors map[string]bool, withheld int) {
		p := newPair(t, bankSrc)
		obj := p.devVM.NewTaintedString("PLACEHOLDER", taint.Bit(0))
		obj.CorID = "pw"
		for i := 0; i < 10; i++ {
			p.devVM.NewString("framework")
		}
		if restricted {
			p.dev.Restricted = taint.Bit(0)
		}
		if p.dev.BeginWarmup() == 0 {
			t.Fatal("warm-up refused")
		}
		var objs []ObjectState
		for {
			var c *WarmupChunk
			var err error
			c, wire, err = p.dev.CaptureWarmup(4, wire)
			if err != nil {
				t.Fatalf("capture warmup: %v", err)
			}
			if c == nil {
				break
			}
			objs = append(objs, c.Objects...)
			if c.Final {
				break
			}
		}
		p.dev.WarmupAcked()
		// Mutate the cor object after its chunk would have shipped: on the
		// warm delta path a restricted object always looks "never shipped",
		// so this exercises the second filter too.
		obj.Str = "PLACEHOLDER2"
		p.devVM.Heap.MarkDirty(obj)
		m, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
		if err != nil {
			t.Fatalf("capture migration: %v", err)
		}
		if m.WarmEpoch == 0 {
			t.Fatal("trigger migration did not take the warm path")
		}
		wire = append(wire, m.Encode()...)
		objs = append(objs, m.Objects...)
		ids, cors = collectCorIDs(objs)
		return wire, ids, cors, p.dev.Stats.Withheld
	}

	wire, ids, cors, withheld := run(false)
	if !cors["pw"] {
		t.Fatalf("unrestricted run must ship the cor object (cors=%v)", cors)
	}
	if !bytes.Contains(wire, []byte("pw")) {
		t.Fatal("unrestricted run: cor ID missing from wire bytes")
	}
	if withheld != 0 {
		t.Fatalf("unrestricted run withheld %d objects", withheld)
	}
	sensIDs := ids

	wire, ids, cors, withheld = run(true)
	if cors["pw"] {
		t.Fatal("server-only cor object shipped in a DSM payload")
	}
	if bytes.Contains(wire, []byte("pw")) {
		t.Fatal("server-only cor ID appears in DSM wire bytes")
	}
	if withheld < 2 {
		t.Fatalf("withheld = %d, want >= 2 (warm-up pass + trigger delta)", withheld)
	}
	// Everything else still ships: the runs differ by exactly the cor object.
	if len(ids) != len(sensIDs)-1 {
		t.Fatalf("restricted run shipped %d objects, unrestricted %d; want a difference of exactly 1",
			len(ids), len(sensIDs))
	}
}

// TestRestrictedFrameFailsCapture pins the live-state rule: a frame register
// carrying (or referencing) server-only taint cannot be silently withheld —
// the whole capture fails with ErrRestricted so the node can map it to a
// policy denial.
func TestRestrictedFrameFailsCapture(t *testing.T) {
	p := newPair(t, bankSrc)
	obj := p.devVM.NewTaintedString("PLACEHOLDER", taint.Bit(0))
	obj.CorID = "pw"
	p.dev.Restricted = taint.Bit(0)
	m := p.prog.Method("Bank", "login")
	if m == nil {
		t.Fatal("no Bank.login")
	}

	// A register referencing the restricted object.
	th := &vm.Thread{VM: p.devVM, Frames: []*vm.Frame{{
		Method: m, Regs: make([]vm.Value, 8),
	}}}
	th.Frames[0].Regs[0] = vm.RefVal(obj)
	if _, err := p.dev.CaptureMigration(th, vm.StopMigrateTaint); !errors.Is(err, ErrRestricted) {
		t.Fatalf("capture with restricted ref = %v, want ErrRestricted", err)
	}

	// A register tag carrying the restricted bit directly.
	p.dev.initialSent = false
	th = &vm.Thread{VM: p.devVM, Frames: []*vm.Frame{{
		Method: m, Regs: make([]vm.Value, 8), Tags: make([]taint.Tag, 8),
	}}}
	th.Frames[0].Tags[1] = taint.Bit(0)
	if _, err := p.dev.CaptureMigration(th, vm.StopMigrateTaint); !errors.Is(err, ErrRestricted) {
		t.Fatalf("capture with restricted reg tag = %v, want ErrRestricted", err)
	}
}

// TestRestrictedInboundRefused pins the admission half: an endpoint with a
// restricted mask refuses inbound migrations and warm-up chunks carrying the
// bit, whether on the object tag, a slot tag, a frame register, or the
// result.
func TestRestrictedInboundRefused(t *testing.T) {
	newNode := func() *Endpoint {
		p := newPair(t, bankSrc)
		p.node.Restricted = taint.Bit(0)
		return p.node
	}

	obj := ObjectState{ID: 1, Class: "java/lang/String", IsStr: true, CorID: "pw", StrLen: 11, Tag: 1}
	if _, err := newNode().ApplyMigration(&Migration{Seq: 1, Objects: []ObjectState{obj}}); !errors.Is(err, ErrRestricted) {
		t.Fatalf("inbound restricted object = %v, want ErrRestricted", err)
	}

	arr := ObjectState{ID: 3, Class: "java/lang/Array", IsArr: true,
		Elems: []ValueState{{Kind: uint8(vm.KindInt), Masked: true, Tag: 1}}}
	if _, err := newNode().ApplyMigration(&Migration{Seq: 1, Objects: []ObjectState{arr}}); !errors.Is(err, ErrRestricted) {
		t.Fatalf("inbound restricted elem tag = %v, want ErrRestricted", err)
	}

	mig := &Migration{Seq: 1, Frames: []FrameState{{Class: "Bank", Method: "login",
		Regs: []ValueState{{Kind: uint8(vm.KindInt), Masked: true, Tag: 1}}}}}
	if _, err := newNode().ApplyMigration(mig); !errors.Is(err, ErrRestricted) {
		t.Fatalf("inbound restricted frame reg = %v, want ErrRestricted", err)
	}

	mig = &Migration{Seq: 1, Result: ValueState{Kind: uint8(vm.KindInt), Masked: true, Tag: 1}}
	if _, err := newNode().ApplyMigration(mig); !errors.Is(err, ErrRestricted) {
		t.Fatalf("inbound restricted result = %v, want ErrRestricted", err)
	}

	n := newNode()
	chunk := &WarmupChunk{Epoch: 5, Index: 0, Final: true, Objects: []ObjectState{obj}}
	if err := n.ApplyWarmupChunk(chunk); !errors.Is(err, ErrRestricted) {
		t.Fatalf("inbound restricted warmup chunk = %v, want ErrRestricted", err)
	}
	if n.WarmupPending() {
		t.Fatal("refused chunk left buffered warm state behind")
	}

	// An unrelated bit passes: the screen is per-bit, not per-taint.
	okObj := ObjectState{ID: 5, Class: "java/lang/String", IsStr: true, Str: "plain", StrLen: 5, Tag: 2}
	if _, err := newNode().ApplyMigration(&Migration{Seq: 1, Objects: []ObjectState{okObj}}); err != nil {
		t.Fatalf("unrestricted bit refused: %v", err)
	}
}
