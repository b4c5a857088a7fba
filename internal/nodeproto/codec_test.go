package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// requestCases covers every Request field and every Op.
var requestCases = []Request{
	{Op: OpPing},
	{Op: OpCatalog, Seq: 7},
	{Op: OpRegister, CorID: "pw", Plaintext: "hunter2", Description: "the password", Whitelist: []string{"a.example", "b.example"}},
	{Op: OpGenerate, CorID: "tok", Length: 32, Whitelist: []string{"", "c.example"}},
	{Op: OpBind, CorID: "pw", AppHash: "deadbeef"},
	{Op: OpRevoke, DeviceID: "phone-1"},
	{Op: OpRestore, DeviceID: "phone-1", ReqID: "rc1-7"},
	{Op: OpDerive, CorID: "pw-web", ParentID: "pw", Description: "derived"},
	{Op: OpReseal, Seq: 1 << 40, CorID: "pw", AppHash: "abc", DeviceID: "phone-1",
		State:  json.RawMessage(`{"version":771,"out":{"seq":3,"key":"qg=="}}`),
		Domain: "login.example", TargetIP: "10.0.0.1", RecordLen: 64,
		TraceID: "00000000000000000000000000000abc", SpanID: "0000000000000def"},
	{Op: OpAudit, CorID: "pw", DeviceID: "phone-1"},
	{Op: OpWhoOwns, DeviceID: "phone-2"},
	{Op: OpHandoffExport, DeviceID: "phone-2"},
	{Op: OpHandoffImport, Shard: json.RawMessage(`{"device_id":"phone-2"}`)},
	{Op: OpDSMWarmup, DeviceID: "phone-1", App: "bank", Chunk: []byte{0, 1, 2, 0xff}},
	{Op: OpRegister, CorID: "q", Plaintext: "line1\nline2 \"quoted\"", Description: "naïve café — ключ"},
	{Op: OpRegister, CorID: "pw", Plaintext: "hunter2", Class: "server-only"},
	{Op: OpSetClass, CorID: "pw", Class: "public"},
	{Op: OpPolicyInstall, Policy: json.RawMessage(`{"version":7,"revoked":["dev-1"]}`)},
	{Op: OpPolicyVersion, Seq: 9},
	{Op: OpGenerate, Length: -3, RecordLen: -1},
	{Op: "no_such_op"},
	{},
}

var responseCases = []Response{
	{},
	{OK: true},
	{OK: true, Seq: 42, CorID: "pw"},
	{OK: false, Error: "unknown cor \"x\"", Denial: "whitelist"},
	{OK: true, Record: []byte{0x17, 0x03, 0x03, 0x00, 0xff, 0x01}},
	{OK: true, Catalog: []CatalogEntry{
		{ID: "pw", Placeholder: "\x00PLACEHOLDER\x00", Description: "password", Bit: 3},
		{ID: "tok", Placeholder: "p2", Description: "token"},
		{},
	}},
	{OK: true, Audit: []AuditEntry{
		{Seq: 1, Time: "2015-04-21T10:00:00Z", AppHash: "h", CorID: "pw", Device: "d", Domain: "x.example", Outcome: "allowed", Detail: "record resealed"},
	}},
	{OK: false, Error: "denied: device revoked", Denial: "revoked", DenialCode: 3},
	{OK: true, PolicyVersion: 12, PolicyHash: "abcdef012345"},
	{OK: true, Catalog: []CatalogEntry{{ID: "pw", Placeholder: "p", Description: "d", Bit: 1, Class: "server-only"}}},
	{OK: true, Audit: []AuditEntry{
		{Seq: 2, Time: "2015-04-21T10:00:01Z", Outcome: "denied", Detail: "revoked",
			DeviceSeq: 4, PolicyVersion: 12, PolicyHash: "abcdef012345"},
	}},
	{OK: false, Error: "not owner", Owner: "node-b"},
	{OK: true, Shard: json.RawMessage(`{"device_id":"phone-2","cors":[]}`)},
	// A catalog entry longer than 127 bytes takes a two-byte length prefix.
	{OK: true, Catalog: []CatalogEntry{{ID: "long", Description: string(bytes.Repeat([]byte("x"), 300))}}},
}

func frameRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frameResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame prefixes body with its length header.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestCodecRoundTrip sends every case through the framed write and read
// paths and checks the decoded message is the original and re-encodes to
// the identical bytes.
func TestCodecRoundTrip(t *testing.T) {
	for i, rc := range requestCases {
		f := frameRequest(t, &rc)
		var got Request
		if err := ReadRequest(bytes.NewReader(f), &got); err != nil {
			t.Fatalf("request case %d: read: %v", i, err)
		}
		if !reflect.DeepEqual(got, rc) {
			t.Errorf("request case %d:\n got %#v\nwant %#v", i, got, rc)
		}
		if again := frameRequest(t, &got); !bytes.Equal(again, f) {
			t.Errorf("request case %d: re-encoding differs", i)
		}
	}
	for i, rc := range responseCases {
		f := frameResponse(t, &rc)
		var got Response
		if err := ReadResponse(bytes.NewReader(f), &got); err != nil {
			t.Fatalf("response case %d: read: %v", i, err)
		}
		if !reflect.DeepEqual(got, rc) {
			t.Errorf("response case %d:\n got %#v\nwant %#v", i, got, rc)
		}
		if again := frameResponse(t, &got); !bytes.Equal(again, f) {
			t.Errorf("response case %d: re-encoding differs", i)
		}
	}
}

// TestCodecEmptyListsOmitted pins the omit-zero rule for lists: an empty
// whitelist or catalog costs no bytes and decodes as nil.
func TestCodecEmptyListsOmitted(t *testing.T) {
	if got := appendRequest(nil, &Request{Op: OpGenerate, Whitelist: []string{}}); !bytes.Equal(got, appendRequest(nil, &Request{Op: OpGenerate})) {
		t.Errorf("empty whitelist encoded as %x", got)
	}
	if got := appendResponse(nil, &Response{OK: true, Catalog: []CatalogEntry{}}); !bytes.Equal(got, appendResponse(nil, &Response{OK: true})) {
		t.Errorf("empty catalog encoded as %x", got)
	}
}

// TestCodecForeignShapes feeds bodies a foreign or pre-binary peer might
// send — JSON envelopes, unknown tags, and non-canonical encodings of
// otherwise valid fields — and checks every one is rejected.
func TestCodecForeignShapes(t *testing.T) {
	bodies := map[string][]byte{
		"json envelope":         []byte(`{"op":"ping"}`),
		"json reseal":           []byte(`{"op":"reseal","cor_id":"pw","state":{"v":1}}`),
		"unknown tag":           {0x7f, 0x01},
		"tag zero":              {0x00},
		"tags out of order":     {reqCorID, 1, 'a', reqOp, 4, 'p', 'i', 'n', 'g'},
		"duplicate tag":         {reqCorID, 1, 'a', reqCorID, 1, 'b'},
		"explicit zero seq":     {reqSeq, 0},
		"explicit empty string": {reqCorID, 0},
		"non-minimal varint":    {reqSeq, 0x81, 0x00},
		"non-minimal length":    {reqCorID, 0x81, 0x00, 'a'},
		"zero int":              {reqLength, 0},
		"empty whitelist count": {reqWhitelist, 0},
		"trailing byte":         {reqSeq, 1, 0xff},
		"string past end":       {reqCorID, 5, 'a'},
		"count past end":        {reqWhitelist, 0xff, 0xff, 0x03, 0},
		"overflowing varint":    {reqSeq, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, body := range bodies {
		var req Request
		if err := ReadRequest(bytes.NewReader(frame(body)), &req); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want malformed", name, err)
		}
	}
	respBodies := map[string][]byte{
		"json envelope":          []byte(`{"ok":true,"seq":1}`),
		"ok of 2":                {respOK, 2},
		"catalog entry overrun":  {respCatalog, 1, 3, catID, 5, 'a'},
		"catalog entry bad tag":  {respCatalog, 1, 4, catID, 1, 'a', 0x7f},
		"catalog count past end": {respCatalog, 9, 0},
		"audit entry bad tag":    {respAudit, 1, 2, 0x40, 1},
		"nested order":           {respCatalog, 1, 6, catDescription, 1, 'd', catID, 1, 'i'},
	}
	for name, body := range respBodies {
		var resp Response
		if err := ReadResponse(bytes.NewReader(frame(body)), &resp); !errors.Is(err, errMalformed) {
			t.Errorf("response %s: err = %v, want malformed", name, err)
		}
	}
}

// TestCodecRejectsGarbage checks that every strict prefix of every valid
// body is either refused or, cut between two fields, a canonical message
// of its own — never half-accepted — and that framing errors surface.
func TestCodecRejectsGarbage(t *testing.T) {
	for i, rc := range requestCases {
		body := appendRequest(nil, &rc)
		for n := 1; n < len(body); n++ {
			var req Request
			if err := decodeRequest(body[:n], &req); err == nil && !bytes.Equal(appendRequest(nil, &req), body[:n]) {
				t.Errorf("request case %d: prefix %d accepted as a different message", i, n)
			}
		}
	}
	for i, rc := range responseCases {
		body := appendResponse(nil, &rc)
		for n := 1; n < len(body); n++ {
			var resp Response
			if err := decodeResponse(body[:n], &resp); err == nil && !bytes.Equal(appendResponse(nil, &resp), body[:n]) {
				t.Errorf("response case %d: prefix %d accepted as a different message", i, n)
			}
		}
	}
	var req Request
	if err := ReadRequest(bytes.NewReader([]byte{0xff, 0, 0, 0}), &req); err == nil {
		t.Error("oversized frame accepted")
	}
	if err := ReadRequest(bytes.NewReader([]byte{0, 0, 0, 9, reqSeq, 1}), &req); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: err = %v, want unexpected EOF", err)
	}
}

// TestReadFrameAllocBounded: a header claiming the maximum message size,
// followed by EOF, must not allocate anywhere near the claim.
func TestReadFrameAllocBounded(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxMessage)
	var req Request
	ReadRequest(bytes.NewReader(hdr), &req) // warm the buffer pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := ReadRequest(bytes.NewReader(hdr), &req)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("header claiming %d bytes allocated %d bytes", maxMessage, got)
	}
}

// TestReadFrameGrowsToLargeBody reads a body several read chunks long,
// exercising the incremental growth path end to end.
func TestReadFrameGrowsToLargeBody(t *testing.T) {
	want := Response{OK: true, Record: bytes.Repeat([]byte{0xab}, 5*readChunk+7)}
	var got Response
	if err := ReadResponse(bytes.NewReader(frameResponse(t, &want)), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("large record mangled: %d bytes back", len(got.Record))
	}
}
