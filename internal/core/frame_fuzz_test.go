package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// splitStream is the reference framing: it splits a whole buffer at once,
// independently of FrameReader. bad reports an implausible length header
// where the next frame would start.
func splitStream(stream []byte) (frames []Frame, bad bool) {
	for len(stream) >= 4 {
		n := binary.BigEndian.Uint32(stream)
		if n == 0 || n > maxFrameLen {
			return frames, true
		}
		if uint64(len(stream)) < 4+uint64(n) {
			break
		}
		frames = append(frames, Frame{Type: stream[4], Payload: stream[5 : 4+n]})
		stream = stream[4+n:]
	}
	return frames, false
}

// readInPieces feeds stream to a FrameReader in pieces whose sizes cycle
// through sizes (a zero size feeds an empty slice), draining frames after
// every feed. Each piece is a fresh copy: Feed takes ownership.
func readInPieces(stream []byte, sizes []int) (frames []Frame, bad bool) {
	var r FrameReader
	for i := 0; len(stream) > 0 || i == 0; i++ {
		n := min(sizes[i%len(sizes)], len(stream))
		r.Feed(append([]byte(nil), stream[:n]...))
		stream = stream[n:]
		for {
			f, ok, err := r.Next()
			if err != nil {
				return frames, true
			}
			if !ok {
				break
			}
			frames = append(frames, f)
		}
	}
	return frames, false
}

// FuzzFrameReader feeds an arbitrary byte stream at arbitrary split points
// (several frames per feed, one byte per feed, and whatever cuts encodes)
// and checks that the frames and the implausible-length error match a
// split of the whole buffer at once, and that no payload Next returned is
// changed by a later Feed.
func FuzzFrameReader(f *testing.F) {
	two := append(EncodeFrame(msgCatalog, []byte("payload")), EncodeFrame(msgWarmupAck, bytes.Repeat([]byte{7}, 300))...)
	f.Add(two, []byte{3})
	f.Add(two, []byte{0, 1, 200, 4})
	f.Add(append(append([]byte(nil), two...), two[:9]...), []byte{})
	f.Add(append(EncodeFrame(msgMigration, nil), 0xFF, 0xFF, 0xFF, 0xFF, 1), []byte{2})
	f.Add([]byte{0, 0, 0, 0, msgCatalog}, []byte{1})
	f.Add([]byte{0x04, 0, 0, 1, msgCatalog, 'x'}, []byte{5}) // one past maxFrameLen
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		want, wantBad := splitStream(stream)
		// Copy the expected payloads: the reference aliases stream.
		wantPayloads := make([][]byte, len(want))
		for i, fr := range want {
			wantPayloads[i] = append([]byte(nil), fr.Payload...)
		}
		sizes := make([]int, len(cuts), len(cuts)+1)
		progress := false
		for i, c := range cuts {
			sizes[i] = int(c)
			progress = progress || c > 0
		}
		if !progress {
			sizes = append(sizes, 1) // empty feeds alone never finish
		}
		for _, split := range [][]int{{len(stream)}, {1}, sizes} {
			got, bad := readInPieces(stream, split)
			if bad != wantBad {
				t.Fatalf("pieces %v: implausible-length error %v, whole-buffer split %v", split, bad, wantBad)
			}
			if len(got) != len(want) {
				t.Fatalf("pieces %v: %d frames, whole-buffer split %d", split, len(got), len(want))
			}
			// All feeds are done: every payload must still hold the bytes
			// it was returned with, and be capped so appending to it cannot
			// reach the reader's later bytes.
			for i, fr := range got {
				if fr.Type != want[i].Type || !bytes.Equal(fr.Payload, wantPayloads[i]) {
					t.Fatalf("pieces %v: frame %d = (%d, %x), want (%d, %x)",
						split, i, fr.Type, fr.Payload, want[i].Type, wantPayloads[i])
				}
				if cap(fr.Payload) != len(fr.Payload) {
					t.Fatalf("pieces %v: frame %d payload not capped (len %d cap %d)", split, i, len(fr.Payload), cap(fr.Payload))
				}
			}
		}
	})
}
