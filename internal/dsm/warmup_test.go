package dsm

import (
	"fmt"
	"strings"
	"testing"

	"tinman/internal/vm"
)

// shipWarmup streams the device's whole warm-up through the wire codec into
// the node, chunk by chunk, and acknowledges the final chunk. maxObjs
// controls chunking so tests exercise multi-chunk epochs.
func shipWarmup(t *testing.T, p *pair, maxObjs int) uint64 {
	t.Helper()
	epoch := p.dev.BeginWarmup()
	if epoch == 0 {
		t.Fatal("warm-up refused: initial sync already sent")
	}
	for {
		c, wire, err := p.dev.CaptureWarmup(maxObjs, nil)
		if err != nil {
			t.Fatalf("capture warmup: %v", err)
		}
		if c == nil {
			break
		}
		decoded, err := DecodeWarmupChunk(wire)
		if err != nil {
			t.Fatalf("warmup wire: %v", err)
		}
		if err := p.node.ApplyWarmupChunk(decoded); err != nil {
			t.Fatalf("apply warmup chunk %d: %v", decoded.Index, err)
		}
		if c.Final {
			break
		}
	}
	p.dev.WarmupAcked()
	if !p.dev.WarmupReady() {
		t.Fatal("warm-up not ready after final ack")
	}
	return epoch
}

// heapSummary renders a heap as a deterministic multiset of object states
// for bit-identical comparisons (IDs included: DSM adoption preserves them).
func heapSummary(h *vm.Heap) string {
	var b strings.Builder
	for _, o := range h.Objects() {
		fmt.Fprintf(&b, "#%d %s tag=%v v=%d arr=%v str=%v cor=%q %q",
			o.ID, o.Class.Name, o.Tag, o.Version, o.IsArr, o.IsStr, o.CorID, o.Str)
		for i, e := range o.Elems {
			fmt.Fprintf(&b, " e%d={%d %d %v}", i, e.Kind, e.Int, o.ElemTag(i))
		}
		for i, f := range o.Fields {
			fmt.Fprintf(&b, " f%d={%d %d %v}", i, f.Kind, f.Int, o.FieldTag(i))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestWarmupStreamThenDirtyDeltaAtTrigger(t *testing.T) {
	p := newPair(t, bankSrc)
	// Framework heap: many objects the warm-up should move off the
	// critical path.
	for i := 0; i < 40; i++ {
		p.devVM.NewString(strings.Repeat("f", 64))
	}
	mutated := p.devVM.NewString("before")
	shipWarmup(t, p, 8)
	if p.dev.Stats.WarmupChunks < 5 {
		t.Fatalf("chunks = %d, want a multi-chunk stream", p.dev.Stats.WarmupChunks)
	}

	// Execution continues: one object mutates, one is allocated fresh.
	mutated.Str = "after"
	p.devVM.Heap.MarkDirty(mutated)
	fresh := p.devVM.NewString("born-after-warmup")

	m, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	if err != nil {
		t.Fatal(err)
	}
	if m.WarmEpoch == 0 {
		t.Fatal("trigger migration did not take the warm path")
	}
	if m.Initial {
		t.Fatal("warm migration must not claim to be the initial sync")
	}
	// The delta is exactly the touched objects, not the whole heap.
	if len(m.Objects) != 2 {
		ids := make([]uint64, 0, len(m.Objects))
		for _, o := range m.Objects {
			ids = append(ids, o.ID)
		}
		t.Fatalf("delta carries %d objects (%v), want {mutated, fresh}", len(m.Objects), ids)
	}

	decoded, err := DecodeMigration(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !p.node.ConsumeWarmup(decoded.WarmEpoch) {
		t.Fatal("node did not hold the warm epoch ready")
	}
	if _, err := p.node.ApplyMigration(decoded); err != nil {
		t.Fatal(err)
	}
	if got := p.nodeVM.Heap.Get(mutated.ID); got == nil || got.Str != "after" {
		t.Fatalf("mutated object on node = %+v, want post-warm-up content", got)
	}
	if got := p.nodeVM.Heap.Get(fresh.ID); got == nil || got.Str != "born-after-warmup" {
		t.Fatalf("fresh object missing on node: %+v", got)
	}
}

// TestWarmVsColdBitIdentical is the differential guarantee: a warm offload
// must leave the node heap bit-identical to a cold full-snapshot offload of
// the same device state — speculation is semantically invisible.
func TestWarmVsColdBitIdentical(t *testing.T) {
	run := func(warm bool) string {
		p := newPair(t, bankSrc)
		for i := 0; i < 30; i++ {
			p.devVM.NewString(fmt.Sprintf("framework-%03d", i))
		}
		mutated := p.devVM.NewString("v1")
		if warm {
			shipWarmup(t, p, 7)
		}
		// Post-warm-up (or pre-capture) device activity, identical in both
		// runs.
		mutated.Str = "v2"
		p.devVM.Heap.MarkDirty(mutated)
		p.devVM.NewString("late-arrival")

		m, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeMigration(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if warm != (decoded.WarmEpoch != 0) {
			t.Fatalf("warm=%v but wire epoch=%d", warm, decoded.WarmEpoch)
		}
		if decoded.WarmEpoch != 0 && !p.node.ConsumeWarmup(decoded.WarmEpoch) {
			t.Fatal("warm epoch not ready")
		}
		if _, err := p.node.ApplyMigration(decoded); err != nil {
			t.Fatal(err)
		}
		return heapSummary(p.nodeVM.Heap)
	}
	cold, warm := run(false), run(true)
	if cold != warm {
		t.Fatalf("node heaps diverge:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

func TestWarmupOutOfOrderRejected(t *testing.T) {
	p := newPair(t, bankSrc)
	for i := 0; i < 20; i++ {
		p.devVM.NewString("x")
	}
	p.dev.BeginWarmup()
	c0, _, _ := p.dev.CaptureWarmup(5, nil)
	c1, _, _ := p.dev.CaptureWarmup(5, nil)
	c2, _, _ := p.dev.CaptureWarmup(5, nil)

	// Index gap: 0 then 2.
	if err := p.node.ApplyWarmupChunk(c0); err != nil {
		t.Fatal(err)
	}
	if err := p.node.ApplyWarmupChunk(c2); err == nil {
		t.Fatal("index gap accepted")
	}
	if p.node.WarmupPending() {
		t.Fatal("violation must drop the buffered epoch")
	}

	// Epoch mix: chunk 0 of epoch A, then chunk 1 of a different epoch.
	if err := p.node.ApplyWarmupChunk(c0); err != nil {
		t.Fatal(err)
	}
	alien := *c1
	alien.Epoch = c1.Epoch + 9
	if err := p.node.ApplyWarmupChunk(&alien); err == nil {
		t.Fatal("epoch mix accepted")
	}

	// Zero epoch is never valid.
	zero := *c0
	zero.Epoch = 0
	if err := p.node.ApplyWarmupChunk(&zero); err == nil {
		t.Fatal("zero epoch accepted")
	}
}

func TestTornWarmupLeavesHeapUntouched(t *testing.T) {
	p := newPair(t, bankSrc)
	for i := 0; i < 20; i++ {
		p.devVM.NewString("torn")
	}
	before := p.nodeVM.Heap.Len()
	p.dev.BeginWarmup()
	c0, _, _ := p.dev.CaptureWarmup(5, nil)
	if err := p.node.ApplyWarmupChunk(c0); err != nil {
		t.Fatal(err)
	}
	// The final chunk never arrives (crash mid-warm-up): nothing may have
	// been adopted, and the trigger must be refused.
	if p.nodeVM.Heap.Len() != before {
		t.Fatalf("torn warm-up adopted objects: heap %d -> %d", before, p.nodeVM.Heap.Len())
	}
	if p.node.ConsumeWarmup(c0.Epoch) {
		t.Fatal("torn epoch consumed as ready")
	}
	if p.node.WarmupPending() {
		t.Fatal("consume must clear the torn state")
	}
}

func TestConsumeWarmupEpochMismatch(t *testing.T) {
	p := newPair(t, bankSrc)
	p.devVM.NewString("solo")
	epoch := shipWarmup(t, p, 0)
	if p.node.ConsumeWarmup(epoch + 1) {
		t.Fatal("wrong epoch consumed")
	}
	// The mismatch cleared the state: the right epoch is now gone too.
	if p.node.ConsumeWarmup(epoch) {
		t.Fatal("state survived a mismatched consume")
	}
}

func TestNewWarmupEpochSupersedesOld(t *testing.T) {
	p := newPair(t, bankSrc)
	for i := 0; i < 8; i++ {
		p.devVM.NewString("gen1")
	}
	first := shipWarmup(t, p, 0)

	// The device resets (reconnect) and warms again: the new epoch's chunk 0
	// must supersede the completed old epoch on the node.
	p.dev.ResetWarmup()
	second := shipWarmup(t, p, 0)
	if second <= first {
		t.Fatalf("epochs must be monotonic: %d then %d", first, second)
	}
	if p.node.ConsumeWarmup(first) {
		t.Fatal("superseded epoch still consumable")
	}
}

func TestResetWarmupDiscardsSendState(t *testing.T) {
	p := newPair(t, bankSrc)
	p.devVM.NewString("x")
	shipWarmup(t, p, 0)
	p.dev.ResetWarmup()
	if p.dev.WarmupReady() || p.dev.WarmupEpoch() != 0 {
		t.Fatal("reset kept warm send state")
	}
	m, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint)
	if err != nil {
		t.Fatal(err)
	}
	if m.WarmEpoch != 0 || !m.Initial {
		t.Fatalf("post-reset capture must be the cold initial sync: %+v", m)
	}
}

func TestBeginWarmupRefusedAfterInitialSync(t *testing.T) {
	p := newPair(t, bankSrc)
	p.devVM.NewString("x")
	if _, err := p.dev.CaptureMigration(nil, vm.StopMigrateTaint); err != nil {
		t.Fatal(err)
	}
	if epoch := p.dev.BeginWarmup(); epoch != 0 {
		t.Fatalf("warm-up started (%d) after the initial sync already shipped", epoch)
	}
}

func TestWarmupChunkWireRejectsGarbage(t *testing.T) {
	valid := (&WarmupChunk{
		Epoch: 5, Index: 0, Final: true,
		Objects: []ObjectState{{ID: 3, Class: "C", IsStr: true, Str: "ok", StrLen: 2}},
	}).Encode()
	cases := [][]byte{
		nil,
		{},
		{99},                      // wrong version
		valid[:len(valid)/2],      // truncated
		append(valid, 0xAB),       // trailing bytes
		(&WarmupChunk{}).Encode(), // zero epoch
	}
	for i, buf := range cases {
		if _, err := DecodeWarmupChunk(buf); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	got, err := DecodeWarmupChunk(valid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 5 || !got.Final || len(got.Objects) != 1 || got.Objects[0].Str != "ok" {
		t.Fatalf("round trip mangled the chunk: %+v", got)
	}
}

// TestEncoderPoolAllocs is the regression guard for the encode paths:
// AppendEncode into a presized buffer must not allocate at all, and Encode
// exactly once (the returned exact-size buffer).
func TestEncoderPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates sync.Pool allocation counts")
	}
	m := &Migration{Seq: 9, Result: ValueState{Kind: uint8(vm.KindRef)}}
	for i := 0; i < 32; i++ {
		m.Objects = append(m.Objects, ObjectState{
			ID: uint64(i + 1), Class: "C", IsStr: true,
			Str: strings.Repeat("y", 100), StrLen: 100,
		})
	}
	c := &WarmupChunk{Epoch: 1, Final: true, Objects: m.Objects}
	buf := make([]byte, 0, 2*len(m.Encode()))
	if n := testing.AllocsPerRun(50, func() { m.AppendEncode(buf[:0]) }); n != 0 {
		t.Errorf("Migration.AppendEncode into a presized buffer allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.Encode() }); n > 1 {
		t.Errorf("Migration.Encode allocates %.1f/op, want <=1", n)
	}
	if n := testing.AllocsPerRun(50, func() { c.AppendEncode(buf[:0]) }); n != 0 {
		t.Errorf("WarmupChunk.AppendEncode into a presized buffer allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { c.Encode() }); n > 1 {
		t.Errorf("WarmupChunk.Encode allocates %.1f/op, want <=1", n)
	}
}

// CaptureWarmup appends each chunk's one encoding after whatever the caller
// already put in dst (a frame header), and WarmupBytes counts exactly the
// chunk's bytes.
func TestCaptureWarmupAppendsWireOnce(t *testing.T) {
	p := newPair(t, bankSrc)
	for i := 0; i < 12; i++ {
		p.devVM.NewString("appended")
	}
	p.dev.BeginWarmup()
	prefix := []byte("HDR")
	total := 0
	for {
		c, wire, err := p.dev.CaptureWarmup(5, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			if string(wire) != "HDR" {
				t.Fatalf("exhausted capture changed dst: %q", wire)
			}
			break
		}
		if string(wire[:3]) != "HDR" {
			t.Fatalf("chunk %d: prefix clobbered: %q", c.Index, wire[:3])
		}
		if got, want := wire[3:], c.Encode(); string(got) != string(want) {
			t.Fatalf("chunk %d: appended wire differs from Encode", c.Index)
		}
		total += len(wire) - 3
		if c.Final {
			break
		}
	}
	if p.dev.Stats.WarmupBytes != total {
		t.Fatalf("WarmupBytes = %d, want the %d bytes encoded", p.dev.Stats.WarmupBytes, total)
	}
}

// The taint invariant holds on the warm path too: chunked warm-up traffic
// carries cor IDs, never tainted content.
func TestWarmupChunkNeverCarriesTaintedContent(t *testing.T) {
	p := newPair(t, bankSrc)
	rec := p.store.Get("pw")
	ph := p.devVM.NewTaintedString(rec.Placeholder, rec.Tag())
	ph.CorID = rec.ID
	p.dev.BeginWarmup()
	for {
		c, _, err := p.dev.CaptureWarmup(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		for _, o := range c.Objects {
			if o.Tag != 0 && o.Str != "" {
				t.Fatalf("SECURITY: tainted content %q in warm-up chunk", o.Str)
			}
			if o.ID == ph.ID && o.CorID != "pw" {
				t.Fatalf("placeholder shipped without cor ID: %+v", o)
			}
		}
		if c.Final {
			break
		}
	}
}
