package dsm

import (
	"testing"

	"tinman/internal/vm"
)

// FuzzDecodeMigration hardens the wire decoder against hostile input: the
// trusted node decodes migrations sent by (possibly compromised) devices,
// so a crash here is a denial-of-service on the vault. Run with
// `go test -fuzz=FuzzDecodeMigration ./internal/dsm` to explore; the seeds
// run as ordinary tests.
func FuzzDecodeMigration(f *testing.F) {
	// Seeds: a valid migration, a truncation, and mutations.
	valid := (&Migration{
		Seq: 3, Reason: vm.StopMigrateTaint, Initial: true, TriggerTag: 1,
		Result: ValueState{Kind: uint8(vm.KindInt), Int: 9},
		Frames: []FrameState{{Class: "C", Method: "m", PC: 1, Regs: []ValueState{{Kind: uint8(vm.KindRef), RefID: 7}}}},
		Objects: []ObjectState{
			{ID: 7, Class: "java/lang/String", IsStr: true, Str: "x", StrLen: 1},
			{ID: 9, Class: "A", Fields: []ValueState{{Kind: uint8(vm.KindInt), Int: 1, Tag: 2, Masked: true}}},
		},
	}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		m, err := DecodeMigration(buf)
		if err != nil {
			return
		}
		// Nothing decoded may alias the input: overwriting it leaves every
		// decoded string as it was.
		checkOwnsStrings(t, buf, func() []string { return migrationStrings(m) })
		// Whatever decodes must re-encode and decode to the same header.
		m2, err := DecodeMigration(m.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if m2.Seq != m.Seq || m2.Reason != m.Reason || len(m2.Objects) != len(m.Objects) || m2.WarmEpoch != m.WarmEpoch {
			t.Fatal("re-encode not stable")
		}
	})
}

// FuzzDecodeWarmupChunk hardens the warm-up chunk framing the same way: the
// node decodes background chunks from possibly compromised devices, and any
// accepted chunk feeds the ordered-epoch apply path, so both the decoder
// and the ordering guards must hold under arbitrary bytes.
func FuzzDecodeWarmupChunk(f *testing.F) {
	valid := (&WarmupChunk{
		Epoch: 2, Index: 1, Final: true,
		Objects: []ObjectState{
			{ID: 5, Class: "java/lang/String", IsStr: true, Str: "w", StrLen: 1},
			{ID: 9, Class: "B", Elems: []ValueState{{Kind: uint8(vm.KindRef), RefID: 5}}},
		},
	}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                        // truncated mid-object
	f.Add(append(valid, 0x00, 0x01))                   // trailing bytes
	f.Add((&WarmupChunk{Epoch: 7, Index: 3}).Encode()) // out-of-order index
	f.Add((&WarmupChunk{Epoch: 1}).Encode())
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		c, err := DecodeWarmupChunk(buf)
		if err != nil {
			return
		}
		checkOwnsStrings(t, buf, func() []string { return objectStrings(c.Objects) })
		if c.Epoch == 0 {
			t.Fatal("decoder accepted the cold-path sentinel epoch")
		}
		c2, err := DecodeWarmupChunk(c.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if c2.Epoch != c.Epoch || c2.Index != c.Index || c2.Final != c.Final || len(c2.Objects) != len(c.Objects) {
			t.Fatal("re-encode not stable")
		}
	})
}
