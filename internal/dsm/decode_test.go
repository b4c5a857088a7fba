package dsm

import (
	"strings"
	"testing"

	"tinman/internal/vm"
)

// objectStrings lists every string an object state decoded into.
func objectStrings(objs []ObjectState) []string {
	var out []string
	for i := range objs {
		out = append(out, objs[i].Class, objs[i].CorID, objs[i].Str)
	}
	return out
}

// migrationStrings lists every string a migration decoded into.
func migrationStrings(m *Migration) []string {
	out := objectStrings(m.Objects)
	for i := range m.Frames {
		out = append(out, m.Frames[i].Class, m.Frames[i].Method)
	}
	return out
}

// checkOwnsStrings overwrites buf, which a decoder has just parsed, and
// fails if any string in want changes: decoded strings must not alias the
// caller's buffer.
func checkOwnsStrings(t testing.TB, buf []byte, decoded func() []string) {
	t.Helper()
	var want []string
	for _, s := range decoded() {
		want = append(want, strings.Clone(s))
	}
	for i := range buf {
		buf[i] = ^buf[i]
	}
	for i, s := range decoded() {
		if s != want[i] {
			t.Fatalf("decoded string %d changed from %q to %q when the input was overwritten", i, want[i], s)
		}
	}
}

// sampleObjects covers every string position an object can carry: class
// names, cor IDs and string payloads, next to instances and arrays.
func sampleObjects() []ObjectState {
	return []ObjectState{
		{ID: 1, Class: "java/lang/String", IsStr: true, Str: "payload", StrLen: 7},
		{ID: 3, Class: "java/lang/String", IsStr: true, CorID: "cor-7", StrLen: 12, Tag: 4},
		{ID: 5, Class: "Account", Fields: []ValueState{{Kind: uint8(vm.KindRef), RefID: 1}, {Kind: uint8(vm.KindInt), Int: 3}}},
		{ID: 7, Class: "[I", IsArr: true, Elems: []ValueState{{Kind: uint8(vm.KindFloat), Float: 1.5}}},
	}
}

func TestDecodedWarmupChunkOwnsItsStrings(t *testing.T) {
	buf := (&WarmupChunk{Epoch: 3, Index: 2, Objects: sampleObjects()}).Encode()
	c, err := DecodeWarmupChunk(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnsStrings(t, buf, func() []string { return objectStrings(c.Objects) })
	if c.Objects[0].Str != "payload" || c.Objects[1].CorID != "cor-7" || c.Objects[2].Class != "Account" {
		t.Fatalf("decode mangled the chunk: %+v", c.Objects)
	}
}

func TestDecodedMigrationOwnsItsStrings(t *testing.T) {
	buf := (&Migration{
		Seq: 4, Reason: vm.StopMigrateTaint, TriggerTag: 4,
		Result:  ValueState{Kind: uint8(vm.KindRef)},
		Frames:  []FrameState{{Class: "LoginActivity", Method: "onClick", PC: 2, Regs: []ValueState{{Kind: uint8(vm.KindRef), RefID: 3}}}},
		Objects: sampleObjects(),
	}).Encode()
	m, err := DecodeMigration(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnsStrings(t, buf, func() []string { return migrationStrings(m) })
	if m.Frames[0].Class != "LoginActivity" || m.Frames[0].Method != "onClick" {
		t.Fatalf("decode mangled the frame: %+v", m.Frames[0])
	}
}

// TestDecodeWarmupChunkAllocs guards the per-chunk decode cost: a constant
// number of allocations (the chunk, its object list and the one string
// copy of the message) plus one slot slice per instance or array object.
// Strings, however many, cost nothing more.
func TestDecodeWarmupChunkAllocs(t *testing.T) {
	const perChunk = 3
	for _, strs := range []int{0, 200} {
		var objs []ObjectState
		slotted := 0
		for i := 0; i < strs; i++ {
			objs = append(objs, ObjectState{ID: uint64(2*i + 1), Class: "java/lang/String", IsStr: true, Str: "s", StrLen: 1})
		}
		for i := 0; i < 40; i++ {
			objs = append(objs,
				ObjectState{ID: uint64(1000 + 4*i), Class: "Node", Fields: []ValueState{{Kind: uint8(vm.KindInt)}}},
				ObjectState{ID: uint64(1002 + 4*i), Class: "[I", IsArr: true, Elems: []ValueState{{Kind: uint8(vm.KindInt)}}})
			slotted += 2
		}
		buf := (&WarmupChunk{Epoch: 1, Objects: objs}).Encode()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeWarmupChunk(buf); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(perChunk + slotted); allocs > limit {
			t.Errorf("%d strings, %d instances/arrays: decode allocates %.0f objects, budget %.0f",
				strs, slotted, allocs, limit)
		}
	}
}
