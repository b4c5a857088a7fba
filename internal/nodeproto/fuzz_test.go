package nodeproto

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// The wire decoders face untrusted peers: a node reads requests from any
// device, a device reads responses from whatever answers on the node's
// address. Both fuzz targets check three properties on every input:
//
//   - no panic;
//   - a body the decoder accepts re-encodes to the identical bytes, so no
//     two encodings mean the same message;
//   - decoding allocates in proportion to the body, never to a count the
//     body declares.

// allocBound is the most a decode of n body bytes may allocate: every
// field value is copied out once (at most n bytes, plus a string arena of
// at most n), and a list allocates one element per byte at worst, since
// each element takes at least its one-byte length prefix. The constant
// absorbs what the fuzzing engine's own goroutines allocate meanwhile
// (TotalAlloc is process-wide); a count-driven allocation dwarfs it.
func allocBound(n int) uint64 {
	elem := reflect.TypeOf(AuditEntry{}).Size()
	return uint64(n)*uint64(2+elem) + 64<<10
}

// decodeAlloc reports the bytes decode allocated.
func decodeAlloc(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzReadRequest(f *testing.F) {
	for _, rc := range requestCases {
		f.Add(appendRequest(nil, &rc))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			req Request
			err error
		)
		if got := decodeAlloc(func() { err = decodeRequest(body, &req) }); got > allocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), got)
		}
		var framed Request
		if ferr := ReadRequest(bytes.NewReader(frame(body)), &framed); (ferr == nil) != (err == nil) {
			t.Fatalf("framed read err %v, body decode err %v", ferr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(framed, req) {
			t.Fatalf("framed read %#v, body decode %#v", framed, req)
		}
		if re := appendRequest(nil, &req); !bytes.Equal(re, body) {
			t.Fatalf("accepted body %x re-encodes as %x", body, re)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for _, rc := range responseCases {
		f.Add(appendResponse(nil, &rc))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			resp Response
			err  error
		)
		if got := decodeAlloc(func() { err = decodeResponse(body, &resp) }); got > allocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), got)
		}
		var framed Response
		if ferr := ReadResponse(bytes.NewReader(frame(body)), &framed); (ferr == nil) != (err == nil) {
			t.Fatalf("framed read err %v, body decode err %v", ferr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(framed, resp) {
			t.Fatalf("framed read %#v, body decode %#v", framed, resp)
		}
		if re := appendResponse(nil, &resp); !bytes.Equal(re, body) {
			t.Fatalf("accepted body %x re-encodes as %x", body, re)
		}
	})
}
