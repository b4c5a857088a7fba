package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/malware"
	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/policy"
	"tinman/internal/store"
	"tinman/internal/tcpsim"
)

// TrustedNode is the simulation's adapter over the transport-agnostic
// node.Service (§2.5): the service owns the cor vault, policy engine,
// audit log, offload hosting and injection state; this type translates the
// virtual-time control-plane frames into service calls and schedules the
// replies with the modeled compute delays.
type TrustedNode struct {
	w     *World
	Host  *netsim.Host
	Stack *tcpsim.Stack

	// Svc is the shared trusted-node service; the component fields below
	// alias its state so existing callers (tests, examples) keep working.
	Svc     *node.Service
	Cors    *cor.Store
	Policy  *policy.Engine
	Audit   *audit.Log
	Malware *malware.DB

	Replacer *tcpsim.Replacer

	// appDevice maps an installed app name to the installing device ID —
	// the simulated control plane identifies offloads by app name only,
	// while the service keys apps by (device, name). The simulation event
	// loop is single-threaded, so this adapter-local map is unguarded.
	appDevice map[string]string

	// replays is the at-most-once table for tagged requests: a retried
	// request whose original executed (reply lost in a partition) rebinds
	// to the retry's connection instead of re-executing — no duplicate
	// offloads, injections or audit entries. replayOrder keeps insertion
	// order for pruning.
	replays     map[string]*taggedEntry
	replayOrder []string
}

// taggedEntry tracks one tagged request's lifecycle on the node.
type taggedEntry struct {
	// conn is where the reply should go; a retry after a reconnect rebinds
	// it, so the (possibly still pending) reply follows the device to its
	// new connection.
	conn *tcpsim.Conn
	// done flips when the reply frames have been produced; reply caches
	// them so a late retry can be answered without re-execution.
	done  bool
	reply []frame
	// at is the virtual arrival time, for window-based pruning.
	at time.Duration
}

// Replay-table bounds: entries older than the window (or beyond the cap)
// are dropped oldest-first once their replies have been produced.
const (
	replayWindow = 10 * time.Minute
	replayMax    = 512
)

// injectRequest is the msgSSLInject payload.
type injectRequest struct {
	App        string          `json:"app"`
	CorID      string          `json:"cor_id"`
	Domain     string          `json:"domain"`
	ServerAddr string          `json:"server_addr"`
	ServerPort uint16          `json:"server_port"`
	ClientPort uint16          `json:"client_port"`
	State      json.RawMessage `json:"state"`
}

// installRequest is the msgInstall payload.
type installRequest struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	DeviceID string `json:"device_id"`
}

// statsReply is the msgCatalogReply stats trailer; the device merges it into
// Table 3 reports.
type nodeStats struct {
	Instrs     uint64 `json:"instrs"`
	Calls      uint64 `json:"calls"`
	Syncs      int    `json:"syncs"`
	InitBytes  int    `json:"init_bytes"`
	DirtyBytes int    `json:"dirty_bytes"`
	// ExecStartNs is the virtual instant the node began executing this
	// episode's thread; the device subtracts its trigger time from it to get
	// the trigger-to-first-node-instruction latency the warm-up shortens.
	ExecStartNs int64 `json:"exec_start_ns,omitempty"`
}

func newTrustedNode(w *World, host *netsim.Host, corIdleWindow uint64) *TrustedNode {
	svc := node.New(node.Options{
		Clock:         func() time.Time { return time.Unix(0, 0).Add(w.Net.Now()) },
		CorIdleWindow: corIdleWindow,
	})
	n := &TrustedNode{
		w:         w,
		Host:      host,
		Stack:     tcpsim.NewStack(w.Net, host),
		Svc:       svc,
		Cors:      svc.Cors,
		Policy:    svc.Policy,
		Audit:     svc.Audit,
		Malware:   svc.Malware,
		appDevice: make(map[string]string),
		replays:   make(map[string]*taggedEntry),
	}

	l, err := n.Stack.Listen(ControlPort)
	if err != nil {
		panic(err) // fresh stack; cannot happen
	}
	l.OnAccept = n.onControlConn
	// The replacement engine chains in front of the control stack.
	n.Replacer = tcpsim.NewReplacer(host, n.rewritePayload)
	return n
}

// RegisterCor initializes a cor on the trusted node (the safe-environment
// one-time setup of §2.3), wiring its whitelist into the policy engine.
func (n *TrustedNode) RegisterCor(id, plaintext, description string, whitelist ...string) (*cor.Record, error) {
	return n.Svc.RegisterCor(context.Background(), id, plaintext, description, whitelist...)
}

// AttachStore wires a recovered crash-safe store under the node (see
// node.Service.AttachStore): state is restored into the fresh Service, and
// every subsequent vault/audit/policy mutation is fsynced before being
// acknowledged. Call it right after NewWorld, before registering cors.
func (n *TrustedNode) AttachStore(st *store.Store) error {
	return n.Svc.AttachStore(context.Background(), st)
}

// BindApp restricts a cor to an app hash (§3.4 first binding).
func (n *TrustedNode) BindApp(corID, appHash string) error { return n.Svc.BindApp(corID, appHash) }

// SetAppLocks shares the endpoint-pair lock table with the node side (the
// in-process World wires both halves to one table).
func (n *TrustedNode) SetAppLocks(appName string, lt *dsm.LockTable) {
	n.Svc.SetAppLocks(n.appDevice[appName], appName, lt)
}

// HandoffTo moves one device's hosted state — apps, armed injections,
// derived cors, replay window and per-device audit sequence — onto another
// trusted node via the shard export/import path (planned maintenance; crash
// failover is the fleet's job). Registered cors are control-plane state and
// must already be present on dst, as fleet replication guarantees. The
// adapter-level app routing on both nodes follows the shard; on import
// failure the export is restored onto this node.
func (n *TrustedNode) HandoffTo(dst *TrustedNode, deviceID string) error {
	exp, err := n.Svc.DetachShard(deviceID)
	if err != nil {
		return fmt.Errorf("core: detaching %s: %w", deviceID, err)
	}
	if err := dst.Svc.ImportShard(context.Background(), exp); err != nil {
		if rerr := n.Svc.ImportShard(context.Background(), exp); rerr != nil {
			return fmt.Errorf("core: importing %s failed (%v) and rollback failed: %w", deviceID, err, rerr)
		}
		return fmt.Errorf("core: importing %s: %w", deviceID, err)
	}
	for _, a := range exp.Apps {
		if n.appDevice[a.Name] == deviceID {
			delete(n.appDevice, a.Name)
		}
		dst.appDevice[a.Name] = deviceID
	}
	return nil
}

// --- control plane ---

func (n *TrustedNode) onControlConn(c *tcpsim.Conn) {
	reader := &frameReader{}
	c.OnReadable = func() {
		reader.feed(c.Read())
		for {
			f, ok, err := reader.next()
			if err != nil {
				c.Abort()
				return
			}
			if !ok {
				return
			}
			n.handleFrame(c, f)
		}
	}
}

// replyRoute addresses a handler's reply. For plain requests it is the
// connection the request arrived on; for tagged requests the reply reads
// the entry's connection at send time, so a retry that rebound the entry
// after a reconnect receives the (possibly still pending) reply on the new
// connection instead of a dead one.
type replyRoute struct {
	n     *TrustedNode
	conn  *tcpsim.Conn
	entry *taggedEntry
	// span is the node_op span the request runs under (nil when untraced);
	// it ends when the reply is scheduled, at the modeled completion time.
	span *obs.Span
}

// send schedules a reply frame after the given compute delay, modeling node
// processing time without re-entering the event loop.
func (r replyRoute) send(delay time.Duration, f frame) {
	// The node's work is modeled as a scheduled delay, so the span ends at
	// the future completion instant rather than "now".
	r.span.EndAt(r.n.w.Net.Now() + delay)
	r.n.w.Net.Schedule(delay, func() {
		c := r.conn
		if r.entry != nil {
			r.entry.done = true
			r.entry.reply = append(r.entry.reply, f)
			c = r.entry.conn
		}
		if err := sendFrame(c, f); err != nil && c.Established() {
			// Connection races are surfaced by aborting; callers time out.
			c.Abort()
		}
	})
}

// reply keeps the historical handler idiom.
func (n *TrustedNode) reply(r replyRoute, delay time.Duration, f frame) { r.send(delay, f) }

func (n *TrustedNode) denied(r replyRoute, err error) {
	r.span.Add(obs.Err(obs.ErrDenied))
	n.reply(r, time.Millisecond, frame{Type: msgDenied, Payload: []byte(err.Error())})
}

func (n *TrustedNode) handleFrame(c *tcpsim.Conn, f frame) {
	switch f.Type {
	case msgTagged:
		id, inner, err := decodeTagged(f.Payload)
		n.handleTagged(c, id, inner, 0, 0, err)
	case msgTaggedTrace:
		id, trace, parent, inner, err := decodeTaggedTrace(f.Payload)
		n.handleTagged(c, id, inner, trace, parent, err)
	default:
		n.dispatch(replyRoute{n: n, conn: c}, f)
	}
}

// handleTagged gives an unwrapped tagged frame at-most-once semantics: a
// fresh ID dispatches normally (with the reply routed through the replay
// entry), a known ID rebinds the entry to the arrival connection and — if
// the reply was already produced — re-sends it without touching the service
// again. trace/parent carry the device's span identity when the request
// arrived as msgTaggedTrace; the node joins the trace via StartRemote, which
// never touches the tracer's (device-owned) span stack.
func (n *TrustedNode) handleTagged(c *tcpsim.Conn, id string, inner frame, trace obs.TraceID, parent obs.SpanID, derr error) {
	if derr != nil {
		n.denied(replyRoute{n: n, conn: c}, derr)
		return
	}
	if e, ok := n.replays[id]; ok {
		e.conn = c
		if e.done {
			for _, f := range e.reply {
				n.reply(replyRoute{n: n, conn: c}, time.Millisecond, f)
			}
		}
		// Not done: the original's reply is still pending in the event
		// queue; rebinding conn above is all the retry needs.
		return
	}
	e := &taggedEntry{conn: c, at: n.w.Net.Now()}
	n.replays[id] = e
	n.replayOrder = append(n.replayOrder, id)
	n.pruneReplays()
	r := replyRoute{n: n, conn: c, entry: e}
	if tr := n.w.Obs; tr.Enabled() {
		r.span = tr.StartRemote(obs.PhaseNodeOp, trace, parent, obs.Msg(inner.Type))
	}
	n.dispatch(r, inner)
}

// pruneReplays drops completed entries that have aged out of the replay
// window, then completed entries beyond the size cap, oldest first. An
// in-progress entry blocks pruning behind it: its reply closure still
// writes through the pointer.
func (n *TrustedNode) pruneReplays() {
	cutoff := n.w.Net.Now() - replayWindow
	for len(n.replayOrder) > 0 {
		e := n.replays[n.replayOrder[0]]
		if !e.done || e.at >= cutoff {
			break
		}
		delete(n.replays, n.replayOrder[0])
		n.replayOrder = n.replayOrder[1:]
	}
	for len(n.replayOrder) > replayMax {
		e := n.replays[n.replayOrder[0]]
		if !e.done {
			break
		}
		delete(n.replays, n.replayOrder[0])
		n.replayOrder = n.replayOrder[1:]
	}
}

func (n *TrustedNode) dispatch(r replyRoute, f frame) {
	switch f.Type {
	case msgInstall:
		n.handleInstall(r, f.Payload)
	case msgMigration:
		n.handleMigration(r, f.Payload)
	case msgCatalog:
		n.handleCatalog(r)
	case msgSSLInject:
		n.handleInject(r, f.Payload)
	case msgWarmupChunk:
		n.handleWarmupChunk(r, f.Payload)
	default:
		n.denied(r, fmt.Errorf("core: node: unknown control message %d", f.Type))
	}
}

// handleWarmupChunk applies one background warm-up chunk and acknowledges it
// out of band (msgWarmupAck is routed to the device's warm-up driver, never
// into the request/reply queue). The chunk is fire-and-forget on the device
// side, so a malformed frame is simply dropped — the warm-up degrades to the
// cold path on its own. The service decodes the chunk (once) and hands back
// the epoch and index the ack names; epoch 0 means it did not decode.
func (n *TrustedNode) handleWarmupChunk(r replyRoute, payload []byte) {
	app, chunkBytes, err := decodeWarmupChunk(payload)
	if err != nil {
		return
	}
	var span *obs.Span
	if tr := n.w.Obs; tr.Enabled() {
		trace, parent, _ := tr.Current()
		span = tr.StartRemote(obs.PhaseDSMWarmup, trace, parent, obs.Bytes(len(chunkBytes)))
	}
	epoch, index, serr := n.Svc.WarmupChunk(obs.ContextWithSpan(context.Background(), span), n.appDevice[app], app, chunkBytes)
	if epoch == 0 {
		span.Add(obs.Outcome(false))
		span.End()
		return
	}
	// Applying the chunk costs node-side deserialization time; it delays only
	// the ack, never a foreground request (the event loop interleaves).
	delay := time.Duration(int64(len(chunkBytes)) * n.w.Cost.SerializeNsPerByte)
	if span != nil {
		span.Add(obs.Outcome(serr == nil))
		span.EndAt(n.w.Net.Now() + delay)
	}
	n.w.Net.Schedule(delay, func() {
		if err := sendFrame(r.conn, encodeWarmupAck(app, epoch, index, serr == nil)); err != nil && r.conn.Established() {
			r.conn.Abort()
		}
	})
}

// handleInstall forwards the warm-up dex transfer (§6.2) to the service and
// models the assembly cost as proportional to code size.
func (n *TrustedNode) handleInstall(r replyRoute, payload []byte) {
	var req installRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		n.denied(r, fmt.Errorf("core: node: bad install: %v", err))
		return
	}
	res, err := n.Svc.Install(context.Background(), node.InstallRequest{
		DeviceID:              req.DeviceID,
		Name:                  req.Name,
		Source:                req.Source,
		NonOffloadableNatives: deviceNativeNames,
	})
	if err != nil {
		n.denied(r, err)
		return
	}
	n.appDevice[req.Name] = req.DeviceID

	delay := time.Duration(int64(res.CodeSize) * n.w.Cost.NodeNsPerInstr * 10)
	n.reply(r, delay, frame{Type: msgInstallOK, Payload: []byte(res.Hash)})
}

// migrationEnvelope wraps a migration with its app name.
type migrationEnvelope struct {
	App   string `json:"app"`
	Bytes []byte `json:"bytes"`
	// Stats carries node-side counters on node->device envelopes.
	Stats *nodeStats `json:"stats,omitempty"`
}

// handleMigration is the offload entry point: the service policy-checks,
// applies, runs and captures; the adapter schedules the reply after the
// modeled compute delay.
func (n *TrustedNode) handleMigration(r replyRoute, payload []byte) {
	var env migrationEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		n.denied(r, fmt.Errorf("core: node: bad migration envelope: %v", err))
		return
	}
	res, err := n.Svc.Offload(obs.ContextWithSpan(context.Background(), r.span),
		n.appDevice[env.App], env.App, env.Bytes)
	if err != nil {
		if errors.Is(err, node.ErrWarmStale) {
			// Stale speculation is not a denial: tell the device to resend
			// the full snapshot (the cold path) under a fresh request.
			n.reply(r, time.Millisecond, frame{Type: msgWarmMiss, Payload: []byte(err.Error())})
			return
		}
		n.denied(r, err)
		return
	}
	reply := migrationEnvelope{
		App:   env.App,
		Bytes: res.Bytes,
		Stats: &nodeStats{
			Instrs: res.Stats.Instrs, Calls: res.Stats.Calls,
			Syncs: res.Stats.Syncs, InitBytes: res.Stats.InitBytes, DirtyBytes: res.Stats.DirtyBytes,
			ExecStartNs: int64(n.w.Net.Now()),
		},
	}
	out, err := json.Marshal(reply)
	if err != nil {
		n.denied(r, err)
		return
	}
	execD := time.Duration(int64(res.Executed) * n.w.Cost.NodeNsPerInstr)
	serD := time.Duration(int64(len(res.Bytes)) * n.w.Cost.SerializeNsPerByte)
	if r.span != nil {
		// The episode's compute and the reply serialization are modeled
		// (scheduled) rather than elapsed, so both children are recorded over
		// their future intervals.
		now := n.w.Net.Now()
		r.span.ChildAt(obs.PhaseNodeExec, now, now+execD, obs.Count(int64(res.Executed)))
		r.span.ChildAt(obs.PhaseSyncBack, now+execD, now+execD+serD, obs.Bytes(len(res.Bytes)))
	}
	n.reply(r, execD+serD, frame{Type: msgMigration, Payload: out})
}

// handleCatalog serves the device-visible cor catalog (the selection-widget
// content, §4.1).
func (n *TrustedNode) handleCatalog(r replyRoute) {
	views, err := n.Svc.Catalog(context.Background())
	if err != nil {
		n.denied(r, err)
		return
	}
	payload, err := json.Marshal(views)
	if err != nil {
		n.denied(r, err)
		return
	}
	n.reply(r, time.Millisecond, frame{Type: msgCatalogReply, Payload: payload})
}

// handleInject arms payload replacement for an imminent marked record
// (fig 8 steps 1–2); policy enforcement lives in the service.
func (n *TrustedNode) handleInject(r replyRoute, payload []byte) {
	var req injectRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		n.denied(r, fmt.Errorf("core: node: bad inject request: %v", err))
		return
	}
	err := n.Svc.ArmInjection(obs.ContextWithSpan(context.Background(), r.span), node.InjectRequest{
		DeviceID: n.appDevice[req.App],
		App:      req.App,
		CorID:    req.CorID,
		Domain:   req.Domain,
		Key: node.InjectionKey{
			ClientAddr: DeviceAddr,
			ClientPort: req.ClientPort,
			ServerAddr: req.ServerAddr,
			ServerPort: req.ServerPort,
		},
		State: req.State,
	})
	if err != nil {
		n.denied(r, err)
		return
	}
	n.reply(r, n.w.Cost.NodeInjectSetup, frame{Type: msgSSLInjectOK})
}

// rewritePayload is the payload-replacement hook (fig 8 step 4): swap the
// placeholder-bearing marked record for the cor-bearing one.
func (n *TrustedNode) rewritePayload(origSrc, origDst string, seg *tcpsim.Segment) ([]byte, error) {
	// Replacement fires from packet delivery, not a control request; attach
	// it under whatever span the (single-threaded) simulation is currently
	// inside — during a login that is the device's http_wait span.
	var span *obs.Span
	if tr := n.w.Obs; tr.Enabled() {
		trace, parent, _ := tr.Current()
		span = tr.StartRemote(obs.PhaseTCPReplace, trace, parent, obs.Dst(origDst))
	}
	key := node.InjectionKey{
		ClientAddr: origSrc, ClientPort: seg.SrcPort,
		ServerAddr: origDst, ServerPort: seg.DstPort,
	}
	out, err := n.Svc.ReplacePayload(obs.ContextWithSpan(context.Background(), span), key, len(seg.Payload))
	if span != nil {
		if err != nil {
			span.Add(obs.Err(obs.ErrInternal))
		} else {
			span.Add(obs.Bytes(len(out)))
		}
		span.End()
	}
	return out, err
}
