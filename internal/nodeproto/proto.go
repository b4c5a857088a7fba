// Package nodeproto implements TinMan's trusted-node service over a real
// network: a binary request/response protocol carrying the operations a
// device needs from the node — cor registration and catalog, app binding,
// policy administration, audit queries, and the heart of the SSL/TCP
// offload path: resealing a marked record with cor plaintext under an
// injected session state (§3.2–§3.4).
//
// The in-process simulation (internal/core) exercises the full system
// including device-side tainting; this package is the deployable
// counterpart for the trusted-node half, served by cmd/tinman-node and
// consumed by cmd/tinman-device.
//
// # Framing
//
// A message is a 4-byte big-endian body length followed by the body: the
// Request or Response fields in the tagged binary encoding of codec.go.
// Opaque payloads — the tlssim session state, a shard export, a policy
// snapshot, a warm-up chunk, a resealed record — travel as raw bytes, with
// no JSON pass and no base64. The decoder fails closed: an unknown tag,
// trailing bytes or a count larger than the bytes left reject the message.
//
// # Pipelining
//
// Every request carries a Seq correlation ID so a single connection can
// hold many requests in flight: the server echoes Req.Seq into Resp.Seq
// and may answer out of order.
//
// The binary encoding replaced an earlier JSON one on a flag day. There is
// no version negotiation: clients and nodes from before the change cannot
// talk to clients and nodes after it, and a node reading a JSON body
// rejects it as malformed.
package nodeproto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Op names a protocol operation.
type Op string

// Protocol operations.
const (
	OpRegister Op = "register" // admin: initialize a cor (safe environment)
	OpGenerate Op = "generate" // admin: mint a fresh random cor
	OpCatalog  Op = "catalog"  // device view: descriptions + placeholders
	OpBind     Op = "bind"     // admin: bind an app hash to a cor
	OpRevoke   Op = "revoke"   // revoke a device (stolen phone)
	OpRestore  Op = "restore"  // restore a device
	OpReseal   Op = "reseal"   // payload replacement: reseal a record with cor
	OpDerive   Op = "derive"   // register a derived cor (hash of a password)
	OpAudit    Op = "audit"    // query the audit log
	OpPing     Op = "ping"     // liveness

	// Fleet routing and handoff (served by a node running behind a fleet
	// router; a standalone node answers who_owns with itself and serves
	// handoffs directly).
	OpWhoOwns       Op = "who_owns"       // which member owns a device's shard
	OpHandoffExport Op = "handoff_export" // detach + export a device shard
	OpHandoffImport Op = "handoff_import" // import a device shard export

	// OpDSMWarmup ships one background warm-up chunk of the speculative
	// pre-migration pipeline (dsm/warmup.go). Low priority by construction:
	// chunks are idempotent-safe (the ordered-epoch protocol drops anything
	// stale, falling back to the cold path), so clients fire them without
	// retry budgets and never block foreground requests on them.
	OpDSMWarmup Op = "dsm_warmup"

	// Control plane (internal/ctl): versioned policy administration. A node
	// wired to a fleet control plane fans these out to every member, exactly
	// like OpRevoke/OpRestore.
	OpPolicyInstall Op = "policy_install" // admin: install a policy snapshot (hot swap)
	OpPolicyVersion Op = "policy_version" // read-only: current policy version + hash
	OpSetClass      Op = "set_class"      // admin: reclassify a cor's sensitivity
)

// Request is the envelope every client message uses. Unused fields stay
// empty; the node validates per-op.
type Request struct {
	Op Op
	// Seq correlates the response on a pipelined connection; the server
	// echoes it verbatim.
	Seq uint64
	// ReqID, when set on a non-idempotent op, makes it at-most-once: the
	// server records the first execution's result in a replay window keyed
	// by this ID and answers duplicates from the record. Retry layers set
	// it so an ambiguous transport failure — request sent, no reply — can
	// be replayed without double-executing. Empty disables dedup.
	ReqID string
	// Cor identity and content.
	CorID       string
	Plaintext   string
	Description string
	Whitelist   []string
	Length      int
	ParentID    string
	// Caller identity.
	AppHash  string
	DeviceID string
	// Reseal parameters.
	State     json.RawMessage
	Domain    string
	TargetIP  string
	RecordLen int
	// TraceID/SpanID propagate the caller's obs span (hex, zero-padded) so
	// node-side spans join the device's trace. Empty when tracing is off.
	TraceID string
	SpanID  string
	// Shard carries a marshaled node.ShardExport for OpHandoffImport. It
	// travels only between trusted nodes (the export holds cor plaintext);
	// device-facing clients never set it.
	Shard json.RawMessage
	// App names the installed app an OpDSMWarmup chunk belongs to (the
	// device half of the AppKey; DeviceID is the other half).
	App string
	// Chunk is the encoded dsm.WarmupChunk for OpDSMWarmup. Like a
	// migration, it carries cor IDs only — never plaintext.
	Chunk []byte
	// Class is the cor sensitivity class ("public", "sensitive",
	// "server-only") for OpRegister/OpGenerate/OpSetClass. Empty keeps the
	// default (sensitive).
	Class string
	// Policy carries a marshaled policy.Snapshot for OpPolicyInstall.
	Policy json.RawMessage
}

// CatalogEntry is the device-visible cor metadata.
type CatalogEntry struct {
	ID          string `json:"id"`
	Placeholder string `json:"placeholder"`
	Description string `json:"description"`
	Bit         int    `json:"bit"`
	// Class is the cor's sensitivity class; empty means the default
	// (sensitive).
	Class string `json:"class,omitempty"`
}

// AuditEntry mirrors audit.Entry for the wire.
type AuditEntry struct {
	Seq     uint64 `json:"seq"`
	Time    string `json:"time"`
	AppHash string `json:"app_hash"`
	CorID   string `json:"cor_id"`
	Device  string `json:"device"`
	Domain  string `json:"domain"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail"`
	// DeviceSeq is the per-device sequence minted by the owning shard; it
	// orders one device's entries across node handoffs (0 on old entries
	// and non-device entries).
	DeviceSeq uint64 `json:"device_seq,omitempty"`
	// PolicyVersion/PolicyHash identify the policy snapshot the entry's
	// decision was checked against (0/"" on pre-versioning entries).
	PolicyVersion uint64 `json:"policy_version,omitempty"`
	PolicyHash    string `json:"policy_hash,omitempty"`
}

// Response is the node's reply envelope. Its JSON tags serve only the
// replay records a shard export carries across a handoff (see
// Server.dispatch); the wire uses the binary encoding.
type Response struct {
	OK bool `json:"ok"`
	// Seq echoes the request's correlation ID.
	Seq   uint64 `json:"seq,omitempty"`
	Error string `json:"error,omitempty"`
	// Denial is set (with Error) when policy refused the operation; it
	// carries the machine-readable reason.
	Denial string `json:"denial,omitempty"`
	// DenialCode is the stable numeric form of Denial: policy.Reason.Code()
	// biased by +1 so 0 means "absent". Clients match on it; the text stays
	// for humans.
	DenialCode int `json:"denial_code,omitempty"`
	// PolicyVersion/PolicyHash answer OpPolicyVersion and acknowledge
	// OpPolicyInstall with the stamp the engine now runs.
	PolicyVersion uint64 `json:"policy_version,omitempty"`
	PolicyHash    string `json:"policy_hash,omitempty"`
	// Catalog for OpCatalog.
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Record is the resealed wire record for OpReseal.
	Record []byte `json:"record,omitempty"`
	// CorID echoes the affected cor (register/generate/derive).
	CorID string `json:"cor_id,omitempty"`
	// Audit entries for OpAudit.
	Audit []AuditEntry `json:"audit,omitempty"`
	// Owner names the member that owns the device's shard: the answer to
	// OpWhoOwns, and the redirect hint on a not-owner refusal — the client
	// resends the identical request (same ReqID) to that member.
	Owner string `json:"owner,omitempty"`
	// Shard is the marshaled node.ShardExport answering OpHandoffExport.
	Shard json.RawMessage `json:"shard,omitempty"`
}

// maxMessage bounds a single protocol message.
const maxMessage = 16 << 20

// readChunk bounds how far ReadRequest/ReadResponse grow a body buffer
// ahead of the bytes that actually arrived: a header is only a claim, so
// four bytes claiming maxMessage must not buy a 16 MB allocation.
const readChunk = 64 << 10

// maxPooled bounds the buffers kept in the pools; larger one-off messages
// (a big catalog, a long audit query) are allocated and dropped rather
// than pinning memory.
const maxPooled = 1 << 20

// bufPool recycles frame buffers on both the write and the read side, so a
// busy node does not allocate per message. Decoding copies every field out
// of the body, so a read buffer is reusable as soon as decoding returns.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooled {
		*bp = b[:0]
		bufPool.Put(bp)
	}
}

// WriteRequest frames and writes one request.
func WriteRequest(w io.Writer, req *Request) error {
	bp := bufPool.Get().(*[]byte)
	b := appendRequest(append((*bp)[:0], 0, 0, 0, 0), req)
	err := writeFrame(w, b)
	putBuf(bp, b)
	return err
}

// WriteResponse frames and writes one response.
func WriteResponse(w io.Writer, resp *Response) error {
	bp := bufPool.Get().(*[]byte)
	b := appendResponse(append((*bp)[:0], 0, 0, 0, 0), resp)
	err := writeFrame(w, b)
	putBuf(bp, b)
	return err
}

// writeFrame patches the body length into frame's 4-byte header and writes
// header and body in a single Write, so a bufio.Writer or a raw conn both
// see one contiguous frame.
func writeFrame(w io.Writer, frame []byte) error {
	body := len(frame) - 4
	if body > maxMessage {
		return fmt.Errorf("nodeproto: message of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(body))
	_, err := w.Write(frame)
	return err
}

// ReadRequest reads one framed request into req.
func ReadRequest(r io.Reader, req *Request) error {
	bp := bufPool.Get().(*[]byte)
	body, err := readFrame(r, (*bp)[:0])
	if err == nil {
		err = decodeRequest(body, req)
	}
	putBuf(bp, body)
	return err
}

// ReadResponse reads one framed response into resp.
func ReadResponse(r io.Reader, resp *Response) error {
	bp := bufPool.Get().(*[]byte)
	body, err := readFrame(r, (*bp)[:0])
	if err == nil {
		err = decodeResponse(body, resp)
	}
	putBuf(bp, body)
	return err
}

// readFrame reads one frame's body into buf, growing it as the bytes
// arrive — at most readChunk, or the bytes already read, past them — never
// to the header's claim up front. It returns the body, or on error the
// buffer for recycling.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header lands in buf too: a local array passed to an io.Reader
	// escapes, costing an allocation per message.
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > maxMessage {
		return buf, fmt.Errorf("nodeproto: implausible message length %d", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, len(buf)+max(readChunk, len(buf)))-len(buf))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// allOps lists every protocol operation.
var allOps = []Op{OpRegister, OpGenerate, OpCatalog, OpBind, OpRevoke,
	OpRestore, OpReseal, OpDerive, OpAudit, OpPing,
	OpWhoOwns, OpHandoffExport, OpHandoffImport, OpDSMWarmup,
	OpPolicyInstall, OpPolicyVersion, OpSetClass}
