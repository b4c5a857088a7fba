package nodeproto

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/policy"
	"tinman/internal/tlssim"
)

// connBufSize sizes the buffered reader/writer on each connection; large
// enough that a full pipeline batch moves in one syscall.
const connBufSize = 64 << 10

// apps256 is the sha256-hex helper shared by server derivations.
func apps256(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// DenialError is returned when the node's policy engine refused the
// operation. It is extractable with errors.As so callers can branch on
// policy denials without string matching.
type DenialError struct {
	// Reason is the machine-readable policy reason (policy.Reason.String()).
	Reason string
	// Code is the stable numeric reason (policy.Reason.Code()) decoded from
	// the wire; -1 when the server sent none.
	Code int
	// Message is the node's full error text.
	Message string
}

func (e *DenialError) Error() string {
	return fmt.Sprintf("nodeproto: denied (%s): %s", e.Reason, e.Message)
}

// Is maps a wire denial onto the node package's sentinels, so
// errors.Is(err, node.ErrDenied) — or node.ErrRevoked, node.ErrMalware —
// behaves identically whether the denial happened in-process or over TCP.
// The reason comes from the numeric code; the text is never parsed.
func (e *DenialError) Is(target error) bool {
	if target == node.ErrDenied {
		return true
	}
	if r, ok := policy.ReasonFromCode(e.Code); ok {
		return target == node.SentinelForReason(r)
	}
	return false
}

// IsDenied reports whether err is a policy denial and returns it.
func IsDenied(err error) (*DenialError, bool) {
	var d *DenialError
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}

// NotOwnerError is returned when a fleet member refused a device-keyed
// request because the device's shard is owned by another member. Owner is
// the redirect hint: resend the identical request (same ReqID, so the
// at-most-once window still applies) to that member.
type NotOwnerError struct {
	Owner   string
	Message string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("nodeproto: not owner (try %s): %s", e.Owner, e.Message)
}

// Is maps the wire refusal onto node.ErrNotOwner, matching the in-process
// error surface.
func (e *NotOwnerError) Is(target error) bool { return target == node.ErrNotOwner }

// RedirectOwner extracts the redirect hint from a not-owner refusal.
func RedirectOwner(err error) (string, bool) {
	var n *NotOwnerError
	if errors.As(err, &n) {
		return n.Owner, true
	}
	return "", false
}

// errClosed is the terminal error after Close.
var errClosed = errors.New("nodeproto: client closed")

// result resolves one in-flight request.
type result struct {
	resp *Response
	err  error
}

// waiter is one in-flight request: its result channel plus whether the
// request's bytes reached the wire, which decides how a transport failure
// is reported (ErrAmbiguous vs ErrNeverSent).
type waiter struct {
	ch   chan result
	sent bool
}

// pendingWrite is one request queued for the writer goroutine.
type pendingWrite struct {
	req *Request
	seq uint64
}

// Client talks to a trusted-node server over one TCP connection. Methods
// are safe for concurrent use. Requests are pipelined: a writer goroutine
// streams frames onto the connection, a reader goroutine demultiplexes
// responses to per-Seq waiters, so many calls can be in flight at once on
// the single connection.
//
// SetSerial(true) restores the seed's behavior — one request on the wire
// at a time — which the throughput benchmark uses as its baseline.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer // owned by the writer goroutine
	br   *bufio.Reader // owned by the reader goroutine
	seq  atomic.Uint64

	sendq   chan pendingWrite
	closing chan struct{}

	mu       sync.Mutex // guards waiters, err, isClosed
	waiters  map[uint64]*waiter
	err      error // terminal transport error
	isClosed bool

	// serialMu serializes whole round trips when serial mode is on.
	serial   atomic.Bool
	serialMu sync.Mutex

	// cm holds the collectors installed by SetMetrics (nil-safe when unset).
	cm clientMetrics
}

// clientMetrics caches the client-side collectors.
type clientMetrics struct {
	inflight *obs.Gauge
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// SetMetrics installs request metrics on this client. Tracing needs no
// setter: do() picks the caller's span out of the context and stamps its
// IDs onto the wire request.
func (c *Client) SetMetrics(m *obs.Metrics) {
	if m == nil {
		c.cm = clientMetrics{}
		return
	}
	c.cm = clientMetrics{
		inflight: m.Gauge("tinman_client_inflight_requests"),
		requests: m.Counter("tinman_client_requests_total"),
		errors:   m.Counter("tinman_client_request_errors_total"),
		latency:  m.Histogram("tinman_client_request_seconds"),
	}
}

// Dial connects to the node at addr.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("nodeproto: dialing %s: %v", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection (tests use net.Pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, connBufSize),
		br:      bufio.NewReaderSize(conn, connBufSize),
		sendq:   make(chan pendingWrite, 64),
		closing: make(chan struct{}),
		waiters: make(map[uint64]*waiter),
	}
	go c.writer()
	go c.reader()
	return c
}

// SetSerial toggles one-request-at-a-time mode: each round trip holds an
// exclusive lock from send to receive, exactly like the pre-pipelining
// client.
func (c *Client) SetSerial(on bool) { c.serial.Store(on) }

// Err returns the connection's terminal transport error: nil while it is
// usable, the first fatal error (or a closed marker) afterwards. A client
// with a non-nil Err never recovers; reconnect layers replace it.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.isClosed {
		return errClosed
	}
	return nil
}

// Alive reports whether the connection has hit no terminal transport
// error. Note the lag inherent to TCP: a peer that vanished without a FIN
// or RST stays Alive until a write or read against it actually fails.
func (c *Client) Alive() bool { return c.Err() == nil }

// Close closes the connection and fails any in-flight requests.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.isClosed
	c.isClosed = true
	c.mu.Unlock()
	if already {
		return nil
	}
	close(c.closing)
	err := c.conn.Close()
	c.failAll(errClosed)
	return err
}

// writer drains sendq onto the buffered connection, flushing only when
// the queue runs dry: under load a whole batch of pipelined frames leaves
// in one syscall. After a transport failure it keeps draining, failing
// each queued request, so senders never block on a dead connection.
func (c *Client) writer() {
	var dead error
	write := func(pw pendingWrite) {
		if dead != nil {
			c.resolve(pw.seq, result{err: transportErr(false, dead)})
			return
		}
		// Mark before writing: once any bytes may have left, a failure on
		// this request is ambiguous — the node may have executed it.
		c.markSent(pw.seq)
		if err := WriteRequest(c.bw, pw.req); err != nil {
			dead = err
			c.resolve(pw.seq, result{err: transportErr(true, err)})
			c.failAll(err)
			c.conn.Close()
		}
	}
	for {
		select {
		case <-c.closing:
			return
		case pw := <-c.sendq:
			write(pw)
			// Drain whatever else is queued before paying for a flush. The
			// Gosched between passes lets producer goroutines that are
			// about to enqueue (common on few cores) actually do so, so a
			// whole pipeline batch leaves in one syscall.
			for pass := 0; pass < 2; pass++ {
			drain:
				for {
					select {
					case pw := <-c.sendq:
						write(pw)
					default:
						break drain
					}
				}
				if pass == 0 {
					runtime.Gosched()
				}
			}
			if dead == nil {
				if err := c.bw.Flush(); err != nil {
					dead = err
					c.failAll(err)
					c.conn.Close()
				}
			}
		}
	}
}

// reader demultiplexes responses to waiters by Seq.
func (c *Client) reader() {
	for {
		resp := new(Response)
		if err := ReadResponse(c.br, resp); err != nil {
			c.mu.Lock()
			closed := c.isClosed
			c.mu.Unlock()
			if closed {
				err = errClosed
			}
			c.failAll(err)
			return
		}
		c.mu.Lock()
		w := c.takeWaiterLocked(resp.Seq)
		c.mu.Unlock()
		if w != nil {
			w.ch <- result{resp: resp}
		}
	}
}

// takeWaiterLocked removes and returns the waiter for seq, if any.
func (c *Client) takeWaiterLocked(seq uint64) *waiter {
	w := c.waiters[seq]
	if w == nil {
		return nil
	}
	delete(c.waiters, seq)
	return w
}

// markSent flags seq's waiter as on-the-wire, so a later transport failure
// reports it as ErrAmbiguous instead of ErrNeverSent.
func (c *Client) markSent(seq uint64) {
	c.mu.Lock()
	if w := c.waiters[seq]; w != nil {
		w.sent = true
	}
	c.mu.Unlock()
}

// resolve fails (or answers) a single in-flight request.
func (c *Client) resolve(seq uint64, r result) {
	c.mu.Lock()
	w := c.takeWaiterLocked(seq)
	c.mu.Unlock()
	if w != nil {
		w.ch <- r
	}
}

// failAll resolves every waiter with a transport error, classified per
// waiter: requests already on the wire fail ambiguous, queued ones fail
// never-sent. Reading w.sent without the lock is safe because the map swap
// below makes later markSent calls miss these waiters entirely.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := c.waiters
	c.waiters = make(map[uint64]*waiter)
	c.mu.Unlock()
	for _, w := range waiters {
		w.ch <- result{err: transportErr(w.sent, err)}
	}
}

// waiterPool recycles the one-shot result channels roundTrip waits on.
// A waiter receives exactly one message — takeWaiterLocked removes it
// from the map, so whichever goroutine took it is the only sender — which
// means a channel is drained and reusable once roundTrip reads from it.
var waiterPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// roundTrip sends one request and waits for its correlated response. A
// cancelled or expired ctx abandons the wait promptly: the waiter is
// detached so a late server response is simply discarded by the reader,
// and the connection stays usable for subsequent requests.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seq := c.seq.Add(1)
	req.Seq = seq
	w := &waiter{ch: waiterPool.Get().(chan result)}

	c.mu.Lock()
	if c.isClosed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		waiterPool.Put(w.ch)
		if err == nil {
			err = errClosed
		}
		// The request was refused before queueing: provably never sent.
		return nil, transportErr(false, err)
	}
	c.waiters[seq] = w
	c.mu.Unlock()

	select {
	case c.sendq <- pendingWrite{req: req, seq: seq}:
	case <-c.closing:
		c.resolve(seq, result{err: transportErr(false, errClosed)})
	case <-ctx.Done():
		c.abandon(seq, w)
		return nil, ctx.Err()
	}

	select {
	case r := <-w.ch:
		waiterPool.Put(w.ch)
		if r.err != nil {
			return nil, r.err
		}
		return r.resp, nil
	case <-ctx.Done():
		c.abandon(seq, w)
		return nil, ctx.Err()
	}
}

// abandon detaches a cancelled request's waiter. If the waiter is still
// registered, no resolver can reach it anymore once it is removed under
// the lock; otherwise a resolver already owns the channel and will send
// exactly one result, which is drained so the channel can be pooled.
func (c *Client) abandon(seq uint64, w *waiter) {
	c.mu.Lock()
	still := c.waiters[seq] != nil
	if still {
		c.takeWaiterLocked(seq)
	}
	c.mu.Unlock()
	if !still {
		<-w.ch
	}
	waiterPool.Put(w.ch)
}

// do performs one round trip and maps protocol-level failures to errors.
// On failure the response is never returned: callers get (nil, err), with
// policy refusals wrapped in an errors.As-able *DenialError.
//
// do is also the client's instrumentation point: when the caller's context
// carries a span, the round trip becomes a control_rpc child whose IDs are
// stamped onto the wire request (joining the node's span to the trace), and
// SetMetrics collectors record in-flight/latency/errors.
func (c *Client) do(ctx context.Context, req *Request) (*Response, error) {
	if c.serial.Load() {
		c.serialMu.Lock()
		defer c.serialMu.Unlock()
	}
	var rpc *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		rpc = parent.Child(obs.PhaseControlRPC, obs.OpName(string(req.Op)))
		req.TraceID = rpc.Trace().Hex()
		req.SpanID = rpc.ID().Hex()
	}
	c.cm.requests.Inc()
	c.cm.inflight.Inc()
	start := time.Now()
	resp, err := c.roundTrip(ctx, req)
	if err == nil && !resp.OK {
		switch {
		case resp.Denial != "":
			err = &DenialError{Reason: resp.Denial, Code: resp.DenialCode - 1, Message: resp.Error}
		case resp.Owner != "":
			err = &NotOwnerError{Owner: resp.Owner, Message: resp.Error}
		default:
			err = fmt.Errorf("nodeproto: %s", resp.Error)
		}
	}
	c.cm.latency.Observe(time.Since(start))
	c.cm.inflight.Dec()
	if err != nil {
		c.cm.errors.Inc()
		rpc.Add(obs.Err(classifyErr(err)))
		rpc.End()
		return nil, err
	}
	rpc.End()
	return resp, nil
}

// classifyErr maps a client-visible failure onto the obs error-class
// vocabulary (classes, never error text, reach the exporters).
func classifyErr(err error) obs.ErrClass {
	switch {
	case errors.Is(err, node.ErrDenied):
		return obs.ErrDenied
	case errors.Is(err, context.DeadlineExceeded):
		return obs.ErrTimeout
	case errors.Is(err, context.Canceled):
		return obs.ErrTimeout
	case errors.Is(err, ErrAmbiguous), errors.Is(err, ErrNeverSent):
		return obs.ErrTransport
	default:
		return obs.ErrInternal
	}
}

// Ping checks liveness.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext checks liveness, honoring ctx cancellation/deadline.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpPing})
	return err
}

// Register initializes a cor (run from a safe environment, §2.3).
func (c *Client) Register(id, plaintext, description string, whitelist ...string) error {
	return c.RegisterContext(context.Background(), id, plaintext, description, whitelist...)
}

// RegisterContext is Register with a caller-supplied context.
func (c *Client) RegisterContext(ctx context.Context, id, plaintext, description string, whitelist ...string) error {
	_, err := c.do(ctx, &Request{Op: OpRegister, CorID: id, Plaintext: plaintext, Description: description, Whitelist: whitelist})
	return err
}

// Generate mints a fresh random cor of length n on the node ("Generate New
// Password", §5.4); the plaintext never reaches the client.
func (c *Client) Generate(id, description string, n int, whitelist ...string) error {
	_, err := c.do(context.Background(), &Request{Op: OpGenerate, CorID: id, Description: description, Length: n, Whitelist: whitelist})
	return err
}

// Catalog fetches the device view.
func (c *Client) Catalog() ([]CatalogEntry, error) {
	return c.CatalogContext(context.Background())
}

// CatalogContext is Catalog with a caller-supplied context.
func (c *Client) CatalogContext(ctx context.Context) ([]CatalogEntry, error) {
	resp, err := c.do(ctx, &Request{Op: OpCatalog})
	if err != nil {
		return nil, err
	}
	return resp.Catalog, nil
}

// Bind restricts a cor to an app hash.
func (c *Client) Bind(corID, appHash string) error {
	_, err := c.do(context.Background(), &Request{Op: OpBind, CorID: corID, AppHash: appHash})
	return err
}

// Revoke cuts off a device.
func (c *Client) Revoke(deviceID string) error {
	_, err := c.do(context.Background(), &Request{Op: OpRevoke, DeviceID: deviceID})
	return err
}

// Restore re-enables a device.
func (c *Client) Restore(deviceID string) error {
	_, err := c.do(context.Background(), &Request{Op: OpRestore, DeviceID: deviceID})
	return err
}

// Derive registers a node-computed derivation of an existing cor (currently
// "sha256-hex").
func (c *Client) Derive(parentID, newID, derivation string) error {
	_, err := c.do(context.Background(), &Request{Op: OpDerive, ParentID: parentID, CorID: newID, Description: derivation})
	return err
}

// Reseal performs payload replacement: the node reseals the cor plaintext
// under the provided session state. recordLen is the length of the
// placeholder-bearing record the device produced (0 skips the check).
func (c *Client) Reseal(corID string, state *tlssim.State, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, error) {
	st, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}
	return c.ResealRaw(corID, st, appHash, deviceID, domain, targetIP, recordLen)
}

// ResealRaw is Reseal with a pre-marshaled session state; hot loops (the
// throughput harness) reuse one marshaled state across calls.
func (c *Client) ResealRaw(corID string, state json.RawMessage, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, error) {
	return c.ResealRawContext(context.Background(), corID, state, appHash, deviceID, domain, targetIP, recordLen)
}

// ResealRawContext is ResealRaw with a caller-supplied context.
func (c *Client) ResealRawContext(ctx context.Context, corID string, state json.RawMessage, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, error) {
	resp, err := c.do(ctx, &Request{
		Op: OpReseal, CorID: corID, State: state,
		AppHash: appHash, DeviceID: deviceID, Domain: domain, TargetIP: targetIP,
		RecordLen: recordLen,
	})
	if err != nil {
		return nil, err
	}
	return resp.Record, nil
}

// AuditLog fetches audit entries, optionally filtered.
func (c *Client) AuditLog(corID, deviceID string) ([]AuditEntry, error) {
	resp, err := c.do(context.Background(), &Request{Op: OpAudit, CorID: corID, DeviceID: deviceID})
	if err != nil {
		return nil, err
	}
	return resp.Audit, nil
}

// WhoOwns asks which fleet member owns the device's shard.
func (c *Client) WhoOwns(ctx context.Context, deviceID string) (string, error) {
	resp, err := c.do(ctx, &Request{Op: OpWhoOwns, DeviceID: deviceID})
	if err != nil {
		return "", err
	}
	return resp.Owner, nil
}

// HandoffExport detaches the device's shard from this node and returns its
// marshaled export — half of a node-to-node shard move. The export carries
// cor plaintext; only the fleet control plane calls this.
func (c *Client) HandoffExport(ctx context.Context, deviceID string) (json.RawMessage, error) {
	resp, err := c.do(ctx, &Request{Op: OpHandoffExport, DeviceID: deviceID})
	if err != nil {
		return nil, err
	}
	return resp.Shard, nil
}

// HandoffImport attaches a shard export (from another node's
// HandoffExport) onto this node.
func (c *Client) HandoffImport(ctx context.Context, shard json.RawMessage) error {
	_, err := c.do(ctx, &Request{Op: OpHandoffImport, Shard: shard})
	return err
}

// InstallPolicy pushes a policy snapshot for validate-then-swap hot
// reload. Against a fleet-fronting node the push propagates to every
// member. Returns the stamp the node (or fleet) now runs.
func (c *Client) InstallPolicy(ctx context.Context, snap *policy.Snapshot) (version uint64, hash string, err error) {
	raw, err := json.Marshal(snap)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.do(ctx, &Request{Op: OpPolicyInstall, Policy: raw})
	if err != nil {
		return 0, "", err
	}
	return resp.PolicyVersion, resp.PolicyHash, nil
}

// PolicyVersion reports the policy stamp the node currently runs.
func (c *Client) PolicyVersion(ctx context.Context) (version uint64, hash string, err error) {
	resp, err := c.do(ctx, &Request{Op: OpPolicyVersion})
	if err != nil {
		return 0, "", err
	}
	return resp.PolicyVersion, resp.PolicyHash, nil
}

// SetClass reclassifies a cor's sensitivity ("public", "sensitive",
// "server-only"); fleet-fronting nodes replicate it to every member.
func (c *Client) SetClass(ctx context.Context, corID, class string) error {
	_, err := c.do(ctx, &Request{Op: OpSetClass, CorID: corID, Class: class})
	return err
}

// Pool is a fixed-size set of pipelined connections to one node. Callers
// pick a connection per call (round robin), spreading in-flight load so a
// single connection's writer/reader pair is not the bottleneck.
//
// The pool is liveness-aware: Client skips slots whose connection has hit
// a terminal transport error and kicks off a background redial for each,
// so one dead connection degrades capacity instead of failing a fixed
// fraction of calls forever.
type Pool struct {
	dial func() (*Client, error)
	next atomic.Uint64

	mu      sync.Mutex
	slots   []*Client
	dialing []bool
	closed  bool
}

// NewPool opens size connections using dial; the same dial reconnects dead
// slots later.
func NewPool(dial func() (*Client, error), size int) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	p := &Pool{dial: dial, slots: make([]*Client, size), dialing: make([]bool, size)}
	for i := range p.slots {
		c, err := dial()
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots[i] = c
	}
	return p, nil
}

// DialPool opens size connections to addr.
func DialPool(addr string, size int, timeout time.Duration) (*Pool, error) {
	return NewPool(func() (*Client, error) { return Dial(addr, timeout) }, size)
}

// Client returns the next live connection, scanning round robin past dead
// slots (each scheduled for a background redial). If every slot is dead it
// tries one synchronous dial so a recovered node is picked up immediately;
// failing that, it returns a dead client — never nil — whose calls fail
// fast with a classified transport error. The returned client is shared;
// do not Close it — Close the pool.
func (p *Pool) Client() *Client {
	start := p.next.Add(1)
	p.mu.Lock()
	n := uint64(len(p.slots))
	if p.closed {
		c := p.slots[start%n]
		p.mu.Unlock()
		return c
	}
	var firstDead *Client
	for i := uint64(0); i < n; i++ {
		idx := int((start + i) % n)
		c := p.slots[idx]
		if c.Alive() {
			p.mu.Unlock()
			return c
		}
		if firstDead == nil {
			firstDead = c
		}
		p.redialLocked(idx)
	}
	p.mu.Unlock()

	// Every slot is dead. One synchronous attempt, outside the lock so a
	// slow dial does not serialize other callers.
	if c, err := p.dial(); err == nil {
		idx := int(start % n)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return firstDead
		}
		old := p.slots[idx]
		if old.Alive() {
			// A background redial revived the slot first; its connection
			// must stay installed, or it would close ours out from under
			// the caller when it lands.
			p.mu.Unlock()
			c.Close()
			return old
		}
		p.slots[idx] = c
		p.mu.Unlock()
		old.Close()
		return c
	}
	return firstDead
}

// redialLocked starts a background replacement dial for slot idx, at most
// one at a time per slot. The replacement only lands if the slot is still
// dead when the dial completes: a synchronous dial may have revived it in
// the meantime, and closing that connection would yank it from a caller
// already using it.
func (p *Pool) redialLocked(idx int) {
	if p.dialing[idx] || p.closed {
		return
	}
	p.dialing[idx] = true
	go func() {
		c, err := p.dial()
		p.mu.Lock()
		p.dialing[idx] = false
		if err != nil || p.closed || p.slots[idx].Alive() {
			p.mu.Unlock()
			if c != nil {
				c.Close()
			}
			return
		}
		old := p.slots[idx]
		p.slots[idx] = c
		p.mu.Unlock()
		old.Close()
	}()
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	slots := append([]*Client(nil), p.slots...)
	p.mu.Unlock()
	var first error
	for _, c := range slots {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
