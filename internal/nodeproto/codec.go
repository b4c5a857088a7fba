package nodeproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary message body. Every field is a one-byte tag followed by its
// value: a varint for integers and bools, or a uvarint length and the
// bytes for strings and opaque payloads. A list is its tag, a uvarint
// count, then each element length-prefixed (nested entries are themselves
// tag-encoded bodies). Zero fields are omitted and tags appear in strictly
// increasing order, so every message has exactly one encoding; the decoder
// enforces that, and rejects unknown tags, non-minimal varints and
// trailing bytes, so a body it accepts re-encodes to the identical bytes.
//
// The opaque payloads (session state, shard export, warm-up chunk, policy
// snapshot, resealed record) take the lowest tags. Everything after the
// last of them is strings and integers, which the decoder copies into one
// string per message and slices every string field from: one allocation
// instead of one per field, and the copy never holds an opaque payload.

// Request field tags.
const (
	reqState = iota + 1
	reqShard
	reqChunk
	reqPolicy
	reqOp
	reqSeq
	reqReqID
	reqCorID
	reqPlaintext
	reqDescription
	reqWhitelist
	reqLength
	reqParentID
	reqAppHash
	reqDeviceID
	reqDomain
	reqTargetIP
	reqRecordLen
	reqTraceID
	reqSpanID
	reqApp
	reqClass
)

// Response field tags.
const (
	respRecord = iota + 1
	respShard
	respOK
	respSeq
	respError
	respDenial
	respDenialCode
	respPolicyVersion
	respPolicyHash
	respCatalog
	respCorID
	respAudit
	respOwner
)

// CatalogEntry field tags.
const (
	catID = iota + 1
	catPlaceholder
	catDescription
	catBit
	catClass
)

// AuditEntry field tags.
const (
	audSeq = iota + 1
	audTime
	audAppHash
	audCorID
	audDevice
	audDomain
	audOutcome
	audDetail
	audDeviceSeq
	audPolicyVersion
	audPolicyHash
)

// appendRequest appends req's encoded body to b.
func appendRequest(b []byte, req *Request) []byte {
	b = appendBytes(b, reqState, req.State)
	b = appendBytes(b, reqShard, req.Shard)
	b = appendBytes(b, reqChunk, req.Chunk)
	b = appendBytes(b, reqPolicy, req.Policy)
	b = appendString(b, reqOp, string(req.Op))
	b = appendUint(b, reqSeq, req.Seq)
	b = appendString(b, reqReqID, req.ReqID)
	b = appendString(b, reqCorID, req.CorID)
	b = appendString(b, reqPlaintext, req.Plaintext)
	b = appendString(b, reqDescription, req.Description)
	if len(req.Whitelist) > 0 {
		b = append(b, reqWhitelist)
		b = binary.AppendUvarint(b, uint64(len(req.Whitelist)))
		for _, s := range req.Whitelist {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
	}
	b = appendInt(b, reqLength, req.Length)
	b = appendString(b, reqParentID, req.ParentID)
	b = appendString(b, reqAppHash, req.AppHash)
	b = appendString(b, reqDeviceID, req.DeviceID)
	b = appendString(b, reqDomain, req.Domain)
	b = appendString(b, reqTargetIP, req.TargetIP)
	b = appendInt(b, reqRecordLen, req.RecordLen)
	b = appendString(b, reqTraceID, req.TraceID)
	b = appendString(b, reqSpanID, req.SpanID)
	b = appendString(b, reqApp, req.App)
	b = appendString(b, reqClass, req.Class)
	return b
}

// appendResponse appends resp's encoded body to b.
func appendResponse(b []byte, resp *Response) []byte {
	b = appendBytes(b, respRecord, resp.Record)
	b = appendBytes(b, respShard, resp.Shard)
	if resp.OK {
		b = appendUint(b, respOK, 1)
	}
	b = appendUint(b, respSeq, resp.Seq)
	b = appendString(b, respError, resp.Error)
	b = appendString(b, respDenial, resp.Denial)
	b = appendInt(b, respDenialCode, resp.DenialCode)
	b = appendUint(b, respPolicyVersion, resp.PolicyVersion)
	b = appendString(b, respPolicyHash, resp.PolicyHash)
	if len(resp.Catalog) > 0 {
		b = append(b, respCatalog)
		b = binary.AppendUvarint(b, uint64(len(resp.Catalog)))
		for i := range resp.Catalog {
			start := len(b)
			b = appendCatalogEntry(append(b, 0), &resp.Catalog[i])
			b = fillLength(b, start)
		}
	}
	b = appendString(b, respCorID, resp.CorID)
	if len(resp.Audit) > 0 {
		b = append(b, respAudit)
		b = binary.AppendUvarint(b, uint64(len(resp.Audit)))
		for i := range resp.Audit {
			start := len(b)
			b = appendAuditEntry(append(b, 0), &resp.Audit[i])
			b = fillLength(b, start)
		}
	}
	b = appendString(b, respOwner, resp.Owner)
	return b
}

func appendCatalogEntry(b []byte, e *CatalogEntry) []byte {
	b = appendString(b, catID, e.ID)
	b = appendString(b, catPlaceholder, e.Placeholder)
	b = appendString(b, catDescription, e.Description)
	b = appendInt(b, catBit, e.Bit)
	return appendString(b, catClass, e.Class)
}

func appendAuditEntry(b []byte, e *AuditEntry) []byte {
	b = appendUint(b, audSeq, e.Seq)
	b = appendString(b, audTime, e.Time)
	b = appendString(b, audAppHash, e.AppHash)
	b = appendString(b, audCorID, e.CorID)
	b = appendString(b, audDevice, e.Device)
	b = appendString(b, audDomain, e.Domain)
	b = appendString(b, audOutcome, e.Outcome)
	b = appendString(b, audDetail, e.Detail)
	b = appendUint(b, audDeviceSeq, e.DeviceSeq)
	b = appendUint(b, audPolicyVersion, e.PolicyVersion)
	return appendString(b, audPolicyHash, e.PolicyHash)
}

// fillLength turns the one-byte placeholder at b[start] into the uvarint
// length of the nested body that follows it, shifting the body right when
// the length needs more than one byte.
func fillLength(b []byte, start int) []byte {
	n := len(b) - start - 1
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	if h > 1 {
		b = append(b, hdr[1:h]...)
		copy(b[start+h:], b[start+1:start+1+n])
	}
	copy(b[start:], hdr[:h])
	return b
}

func appendString(b []byte, tag byte, s string) []byte {
	if s == "" {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, tag byte, p []byte) []byte {
	if len(p) == 0 {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendUint(b []byte, tag byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendUvarint(append(b, tag), v)
}

func appendInt(b []byte, tag byte, v int) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendVarint(append(b, tag), int64(v))
}

// errMalformed is the decode failure; the body is never partly trusted.
var errMalformed = errors.New("malformed body")

// decoder walks one message body. It fails sticky: after the first error
// every read returns a zero value and ok stays false.
type decoder struct {
	buf []byte
	pos int
	end int // end of the message (or nested entry) being decoded
	ok  bool

	// arena is string(buf[base:]), made on the first string field; every
	// later string field is a substring of it.
	arena string
	base  int
}

func (d *decoder) fail() { d.ok, d.pos = false, d.end }

// more reports whether another field follows.
func (d *decoder) more() bool { return d.ok && d.pos < d.end }

// tag reads the next field tag, which must exceed the previous one.
func (d *decoder) tag(last *byte) byte {
	t := d.buf[d.pos]
	if t <= *last {
		d.fail()
		return 0
	}
	d.pos++
	*last = t
	return t
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	if !d.ok {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	if n <= 0 || (n > 1 && d.buf[d.pos+n-1] == 0) {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// uint reads a field's nonzero uvarint value (zero values are omitted).
func (d *decoder) uint() uint64 {
	v := d.uvarint()
	if v == 0 {
		d.fail()
	}
	return v
}

// int reads a field's nonzero, minimally encoded, int-sized varint.
func (d *decoder) int() int {
	if !d.ok {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:d.end])
	if n <= 0 || (n > 1 && d.buf[d.pos+n-1] == 0) || v == 0 || v != int64(int(v)) {
		d.fail()
		return 0
	}
	d.pos += n
	return int(v)
}

// bool reads a field's true value (false is omitted).
func (d *decoder) bool() bool {
	if d.uvarint() != 1 {
		d.fail()
	}
	return d.ok
}

// span reads a uvarint length and returns the bounds of that many
// following bytes.
func (d *decoder) span() (start, end int) {
	n := d.uvarint()
	if n > uint64(d.end-d.pos) {
		d.fail()
	}
	if !d.ok {
		return d.pos, d.pos
	}
	start = d.pos
	d.pos += int(n)
	return start, d.pos
}

// count reads a nonzero list length, which cannot exceed the bytes left:
// every element takes at least its one-byte length prefix.
func (d *decoder) count() int {
	n := d.uint()
	if n > uint64(d.end-d.pos) {
		d.fail()
		return 0
	}
	return int(n)
}

// str returns the string in [start, end) from the message's arena.
func (d *decoder) str(start, end int) string {
	if start == end {
		return ""
	}
	if d.arena == "" {
		d.arena, d.base = string(d.buf[start:len(d.buf)]), start
	}
	return d.arena[start-d.base : end-d.base]
}

// string reads a field's string.
func (d *decoder) string() string { return d.field(d.span()) }

// field is str for a field's value, which is never empty.
func (d *decoder) field(start, end int) string {
	if start == end {
		d.fail()
	}
	return d.str(start, end)
}

// bytes reads a field's nonempty opaque payload into a fresh slice: the
// body buffer is recycled once decoding returns.
func (d *decoder) bytes() []byte {
	start, end := d.span()
	if start == end {
		d.fail()
		return nil
	}
	return append([]byte(nil), d.buf[start:end]...)
}

// entry reads the length prefix of one nested list entry and narrows the
// decoder to it. The caller decodes fields while more reports any (which
// consumes the entry exactly: no read crosses end), then restores end to
// the returned outer bound.
func (d *decoder) entry() (outer int) {
	start, end := d.span()
	outer = d.end
	d.pos, d.end = start, end
	return outer
}

func (d *decoder) err(what string) error {
	if !d.ok {
		return fmt.Errorf("nodeproto: %s: %w", what, errMalformed)
	}
	return nil
}

// decodeRequest decodes a whole request body into req.
func decodeRequest(body []byte, req *Request) error {
	d := decoder{buf: body, end: len(body), ok: true}
	var last byte
	for d.more() {
		switch d.tag(&last) {
		case reqState:
			req.State = d.bytes()
		case reqShard:
			req.Shard = d.bytes()
		case reqChunk:
			req.Chunk = d.bytes()
		case reqPolicy:
			req.Policy = d.bytes()
		case reqOp:
			start, end := d.span()
			if req.Op = knownOp(d.buf[start:end]); req.Op == "" {
				req.Op = Op(d.field(start, end))
			}
		case reqSeq:
			req.Seq = d.uint()
		case reqReqID:
			req.ReqID = d.string()
		case reqCorID:
			req.CorID = d.string()
		case reqPlaintext:
			req.Plaintext = d.string()
		case reqDescription:
			req.Description = d.string()
		case reqWhitelist:
			n := d.count()
			req.Whitelist = make([]string, n)
			for i := range req.Whitelist {
				req.Whitelist[i] = d.str(d.span())
			}
		case reqLength:
			req.Length = d.int()
		case reqParentID:
			req.ParentID = d.string()
		case reqAppHash:
			req.AppHash = d.string()
		case reqDeviceID:
			req.DeviceID = d.string()
		case reqDomain:
			req.Domain = d.string()
		case reqTargetIP:
			req.TargetIP = d.string()
		case reqRecordLen:
			req.RecordLen = d.int()
		case reqTraceID:
			req.TraceID = d.string()
		case reqSpanID:
			req.SpanID = d.string()
		case reqApp:
			req.App = d.string()
		case reqClass:
			req.Class = d.string()
		default:
			d.fail()
		}
	}
	return d.err("request")
}

// decodeResponse decodes a whole response body into resp.
func decodeResponse(body []byte, resp *Response) error {
	d := decoder{buf: body, end: len(body), ok: true}
	var last byte
	for d.more() {
		switch d.tag(&last) {
		case respRecord:
			resp.Record = d.bytes()
		case respShard:
			resp.Shard = d.bytes()
		case respOK:
			resp.OK = d.bool()
		case respSeq:
			resp.Seq = d.uint()
		case respError:
			resp.Error = d.string()
		case respDenial:
			resp.Denial = d.string()
		case respDenialCode:
			resp.DenialCode = d.int()
		case respPolicyVersion:
			resp.PolicyVersion = d.uint()
		case respPolicyHash:
			resp.PolicyHash = d.string()
		case respCatalog:
			resp.Catalog = make([]CatalogEntry, d.count())
			for i := range resp.Catalog {
				d.catalogEntry(&resp.Catalog[i])
			}
		case respCorID:
			resp.CorID = d.string()
		case respAudit:
			resp.Audit = make([]AuditEntry, d.count())
			for i := range resp.Audit {
				d.auditEntry(&resp.Audit[i])
			}
		case respOwner:
			resp.Owner = d.string()
		default:
			d.fail()
		}
	}
	return d.err("response")
}

func (d *decoder) catalogEntry(e *CatalogEntry) {
	outer := d.entry()
	var last byte
	for d.more() {
		switch d.tag(&last) {
		case catID:
			e.ID = d.string()
		case catPlaceholder:
			e.Placeholder = d.string()
		case catDescription:
			e.Description = d.string()
		case catBit:
			e.Bit = d.int()
		case catClass:
			e.Class = d.string()
		default:
			d.fail()
		}
	}
	d.end = outer
}

func (d *decoder) auditEntry(e *AuditEntry) {
	outer := d.entry()
	var last byte
	for d.more() {
		switch d.tag(&last) {
		case audSeq:
			e.Seq = d.uint()
		case audTime:
			e.Time = d.string()
		case audAppHash:
			e.AppHash = d.string()
		case audCorID:
			e.CorID = d.string()
		case audDevice:
			e.Device = d.string()
		case audDomain:
			e.Domain = d.string()
		case audOutcome:
			e.Outcome = d.string()
		case audDetail:
			e.Detail = d.string()
		case audDeviceSeq:
			e.DeviceSeq = d.uint()
		case audPolicyVersion:
			e.PolicyVersion = d.uint()
		case audPolicyHash:
			e.PolicyHash = d.string()
		default:
			d.fail()
		}
	}
	d.end = outer
}

// knownOp returns the protocol constant spelled by b, or "" when b names
// no operation; the comparison does not allocate, so the common ops cost
// no string.
func knownOp(b []byte) Op {
	for _, op := range allOps {
		if string(op) == string(b) {
			return op
		}
	}
	return ""
}
