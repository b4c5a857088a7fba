package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/audit"
	"tinman/internal/fleet"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/store"
	"tinman/internal/tlssim"
)

// The node and fleet_durable workloads share one generator: a seeded
// 50/50 mix of catalog reads and reseal writes over a seeded device pool,
// driven first as an open loop of Poisson arrivals at a fixed offered rate
// (CPU and allocations per op, latency tails) and then as a closed loop
// with a fixed in-flight window (requests per second, median latency).
//
// A run is a series of epochs, each on a fresh deployment. The node keeps
// every audit entry in memory, so a deployment serving for a whole run
// grows a heap of hundreds of megabytes whose garbage collections take
// one of the two cores for seconds at a time; the run's figures would
// then depend on where those phases fell. A fresh deployment per epoch
// keeps the heap, the audit log and the stores at the size a few seconds
// of traffic gives them.

const (
	// devicePool is the number of device IDs the traffic spreads over;
	// large enough that both fleet members get a balanced share.
	devicePool = 256
	// window is the closed loop's in-flight request count.
	window = 64
	// openWorkers bounds the requests the open loop has outstanding; it is
	// far above rate × latency, so arrivals rarely wait for a worker.
	openWorkers = 64
	// nodeConns is the pipelined connection count to the single node; the
	// fleet client holds one connection per member. Both equal the host's
	// two cores.
	nodeConns = 2
	// epoch is how long one deployment is measured: half of it in the
	// open loop, half in the closed loop.
	epoch = 2 * time.Second
	// warmup is how long an epoch's deployment serves the closed loop,
	// unmeasured, after one reseal per device has created every device
	// shard.
	warmup = 200 * time.Millisecond
	// releaseWindow is how far ahead of its due time the open loop may
	// release an arrival, batching the generator's wake-ups.
	releaseWindow = 200 * time.Microsecond
	// sampleEvery picks which resealed records are decrypted and checked
	// after the run; every record's length is checked as it arrives.
	sampleEvery = 1024

	// Open-loop offered rates: about half of what two cores sustain at the
	// CPU cost per request of arrivals that come one by one (46 us on the
	// node, 100 us on the durable fleet, on a 2-vCPU host).
	nodeRate  = 25000
	fleetRate = 10000

	benchCor    = "perfbench-pw"
	benchDomain = "bank.example"
)

// fleetMembers are the durable fleet's member IDs.
var fleetMembers = []string{"node-1", "node-2"}

// benchAppHash is the app the reseals claim to come from; the cor is bound
// to it.
var benchAppHash = func() string {
	h := sha256.Sum256([]byte("perfbench login app"))
	return hex.EncodeToString(h[:])
}()

// op is one generated request.
type op struct {
	reseal bool
	dev    int // index into the device pool
}

// opStream draws the shared op mix from its own seeded source.
type opStream struct{ rng *mrand.Rand }

func newOpStream(seed int64) *opStream { return &opStream{mrand.New(mrand.NewSource(seed))} }

func (s *opStream) next() op { return op{reseal: s.rng.Intn(2) == 0, dev: s.rng.Intn(devicePool)} }

// deployment is one trusted-node system under test plus its client side.
type deployment struct {
	durable   bool
	plaintext string
	devices   []string
	state     json.RawMessage // the device's exported TLS session
	origin    *tlssim.State   // the origin server's half, to check records
	recordLen int

	servers  []*nodeproto.Server
	services map[string]*node.Service // member ID -> service
	stores   []*store.Store
	dir      string // durable stores live under it

	clients []*nodeproto.Client    // node
	fc      *nodeproto.FleetClient // fleet_durable

	tracer  *obs.Tracer
	metrics *obs.Metrics
	started time.Time // set-up done; audit entries of the run come after
	closed  bool

	// Counters the run updates concurrently.
	acked     []atomic.Int64 // acknowledged reseals per device
	reseals   atomic.Int64
	perMember map[string]*atomic.Int64
	sampleMu  sync.Mutex
	samples   [][]byte
	errMu     sync.Mutex
	firstErr  error
}

// deploy builds the system: for node an in-memory trusted node on a
// loopback listener with nodeConns pipelined clients, for fleet_durable a
// two-member fleet with one crash-safe store per member behind a fleet
// client. With traced set every server gets an obs tracer and metrics.
func deploy(cfg config, durable, traced bool, rng *mrand.Rand, originKey *rsa.PrivateKey) (d *deployment, err error) {
	d = &deployment{
		durable:   durable,
		plaintext: fmt.Sprintf("pw-%016x", rng.Uint64()),
		services:  map[string]*node.Service{},
		perMember: map[string]*atomic.Int64{},
		acked:     make([]atomic.Int64, devicePool),
	}
	defer func() {
		if err != nil {
			d.close()
			d.removeStores()
		}
	}()
	for i := 0; i < devicePool; i++ {
		d.devices = append(d.devices, fmt.Sprintf("dev-%016x", rng.Uint64()))
	}
	var opts node.Options
	if traced {
		d.tracer = obs.New(obs.Options{Cap: 1 << 16})
		d.metrics = obs.NewMetrics()
		opts.Metrics = d.metrics
	}
	ctx := context.Background()

	if durable {
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			return d, err
		}
		if d.dir, err = os.MkdirTemp(cfg.workdir, "perfbench-fleet-"); err != nil {
			return d, err
		}
		pass := fmt.Sprintf("store-key-%016x", rng.Uint64())
		f, err := fleet.New(fleet.Config{
			MemberIDs:   fleetMembers,
			NodeOptions: opts,
			NewService: func(id string) (*node.Service, error) {
				st, err := store.Open(store.Options{Dir: filepath.Join(d.dir, id), Passphrase: pass})
				if err != nil {
					return nil, err
				}
				d.stores = append(d.stores, st)
				svc := node.New(opts)
				return svc, svc.AttachStore(ctx, st)
			},
		})
		if err != nil {
			return d, err
		}
		if err := f.RegisterCor(ctx, benchCor, d.plaintext, "bank password", benchDomain); err != nil {
			return d, err
		}
		if err := f.BindApp(benchCor, benchAppHash); err != nil {
			return d, err
		}
		addrs := map[string]string{}
		for _, id := range fleetMembers {
			svc, err := f.MemberService(id)
			if err != nil {
				return d, err
			}
			srv := nodeproto.NewServerWith(svc)
			srv.SetPlacement(id, f)
			srv.SetControlPlane(f)
			if addrs[id], err = d.serve(srv); err != nil {
				return d, err
			}
			d.services[id] = svc
			d.perMember[id] = new(atomic.Int64)
		}
		d.fc = nodeproto.DialFleet(addrs, 5*time.Second, nodeproto.ReconnectConfig{Heartbeat: -1})
	} else {
		srv := nodeproto.NewServerWith(node.New(opts))
		if _, err := srv.Svc.RegisterCor(ctx, benchCor, d.plaintext, "bank password", benchDomain); err != nil {
			return d, err
		}
		if err := srv.Svc.BindApp(benchCor, benchAppHash); err != nil {
			return d, err
		}
		addr, err := d.serve(srv)
		if err != nil {
			return d, err
		}
		d.services["node"] = srv.Svc
		d.perMember["node"] = new(atomic.Int64)
		for i := 0; i < nodeConns; i++ {
			c, err := nodeproto.Dial(addr, 5*time.Second)
			if err != nil {
				return d, err
			}
			d.clients = append(d.clients, c)
		}
	}

	// The device's TLS session with the origin server, whose state every
	// reseal carries.
	dev, srv, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: originKey})
	if err != nil {
		return d, err
	}
	if d.state, err = json.Marshal(dev.Export()); err != nil {
		return d, err
	}
	d.origin = srv.Export()
	d.started = time.Now()
	return d, nil
}

// serve starts srv on a loopback listener and returns its address.
func (d *deployment) serve(srv *nodeproto.Server) (string, error) {
	if d.tracer != nil {
		srv.SetObs(d.tracer, d.metrics)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.servers = append(d.servers, srv)
	go srv.Serve(l)
	return l.Addr().String(), nil
}

// close stops the clients, servers and stores; it leaves store files for
// the post-run scan (removeStores deletes them).
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, c := range d.clients {
		c.Close()
	}
	if d.fc != nil {
		d.fc.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, st := range d.stores {
		st.Close()
	}
}

func (d *deployment) removeStores() {
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// reseal sends dev's reseal, on worker w's connection to the single node,
// and returns the record and the member that served it.
func (d *deployment) reseal(ctx context.Context, w int, dev string) ([]byte, string, error) {
	if d.fc != nil {
		return d.fc.Reseal(ctx, benchCor, d.state, benchAppHash, dev, benchDomain, "", 0)
	}
	rec, err := d.clients[w%len(d.clients)].ResealRawContext(ctx, benchCor, d.state, benchAppHash, dev, benchDomain, "", 0)
	return rec, "node", err
}

// catalog reads the catalog for dev and returns the member that served it.
// On the fleet a device reads it from the member that owns the device.
func (d *deployment) catalog(ctx context.Context, w int, dev string) ([]nodeproto.CatalogEntry, string, error) {
	if d.fc == nil {
		cat, err := d.clients[w%len(d.clients)].CatalogContext(ctx)
		return cat, "node", err
	}
	member := d.fc.RouteOf(dev)
	rc, ok := d.fc.Member(member)
	if !ok {
		return nil, "", fmt.Errorf("device %s has no route", dev)
	}
	cat, err := rc.CatalogContext(ctx)
	return cat, member, err
}

// do issues one request for worker w and checks its answer.
func (d *deployment) do(ctx context.Context, w int, o op, rep *report) error {
	dev := d.devices[o.dev]
	var member string
	if o.reseal {
		rec, m, err := d.reseal(ctx, w, dev)
		if err != nil {
			return d.fail(err)
		}
		member = m
		d.acked[o.dev].Add(1)
		if len(rec) != d.recordLen {
			rep.problem("reseal for %s returned a %dB record, want %dB", dev, len(rec), d.recordLen)
		}
		if d.reseals.Add(1)%sampleEvery == 0 {
			d.sampleMu.Lock()
			d.samples = append(d.samples, rec)
			d.sampleMu.Unlock()
		}
	} else {
		cat, m, err := d.catalog(ctx, w, dev)
		if err != nil {
			return d.fail(err)
		}
		member = m
		if len(cat) != 1 || cat[0].ID != benchCor || strings.Contains(cat[0].Placeholder, d.plaintext) {
			rep.problem("catalog answer %+v is not the one placeholder entry", cat)
		}
	}
	d.perMember[member].Add(1)
	return nil
}

func (d *deployment) fail(err error) error {
	d.errMu.Lock()
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.errMu.Unlock()
	return err
}

// openRecord checks that a resealed record decrypts, under the origin
// server's half of the session, to the cor plaintext.
func (d *deployment) openRecord(rec []byte) error {
	sess, err := tlssim.Resume(d.origin, nil)
	if err != nil {
		return err
	}
	_, pt, _, err := sess.Open(rec)
	if err != nil {
		return err
	}
	if string(pt) != d.plaintext {
		return fmt.Errorf("record decrypts to %d bytes that are not the cor", len(pt))
	}
	return nil
}

// warmUp creates every device shard with one reseal (checking its record
// in full), then runs the closed loop for the warmup time.
func (d *deployment) warmUp(seed int64, rep *report) (attempted, failed int64, err error) {
	ctx := context.Background()
	for i, dev := range d.devices {
		rec, _, err := d.reseal(ctx, i, dev)
		if err == nil {
			err = d.openRecord(rec)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("first reseal for %s: %w", dev, err)
		}
		d.acked[i].Add(1)
		d.recordLen = len(rec)
	}
	w := d.closedLoop(seed, warmup, rep)
	return int64(len(d.devices)) + w.done + w.failed, w.failed, nil
}

// loopResult is what one load phase measured, or the sum of one phase
// over a run's epochs.
type loopResult struct {
	done, failed int64
	// byOp holds the request latencies of catalog reads [0] and reseal
	// writes [1].
	byOp [2][]time.Duration
	rtt  []time.Duration // open loop: completion minus send time
	late []time.Duration // open loop: send minus due time
	cost costs
	// rates holds each epoch's completed requests per second of time the
	// virtual machine was not stolen, and latencies its mean request
	// latency with the stolen share taken out.
	rates     []float64
	latencies []time.Duration

	mu sync.Mutex
}

// merge adds one worker's samples.
func (r *loopResult) merge(lat [2][]time.Duration, rtt, late []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range lat {
		r.byOp[k] = append(r.byOp[k], lat[k]...)
	}
	r.rtt = append(r.rtt, rtt...)
	r.late = append(r.late, late...)
}

// finish closes the phase's cost span.
func (r *loopResult) finish(from usage, failed int64) {
	r.cost.add(span{from, takeUsage()})
	r.done, r.failed = int64(len(r.byOp[0])+len(r.byOp[1])), failed
}

// absorb adds one epoch's phase to the run's.
func (r *loopResult) absorb(e *loopResult) {
	r.merge(e.byOp, e.rtt, e.late)
	r.done += e.done
	r.failed += e.failed
	r.cost.plus(e.cost)
	r.rates = append(r.rates, float64(e.done)/e.cost.vmWall().Seconds())
	r.latencies = append(r.latencies, unstolen(e.mean(), e.cost.stealShare()))
}

// sort orders the samples for the quantiles.
func (r *loopResult) sort() {
	for _, l := range [][]time.Duration{r.byOp[0], r.byOp[1], r.rtt, r.late} {
		sortDurations(l)
	}
}

// quantile returns the q-quantile of both ops' latencies together.
func (r *loopResult) quantile(q float64) time.Duration {
	all := append(append([]time.Duration(nil), r.byOp[0]...), r.byOp[1]...)
	sortDurations(all)
	return quantile(all, q)
}

// typical is the mean of the two ops' median latencies. A reseal on the
// durable fleet waits for an fsync and a catalog read does not, so the
// median of the mix would sit in the gap between the two and jump between
// them from run to run.
func (r *loopResult) typical() time.Duration {
	return (quantile(r.byOp[0], 0.5) + quantile(r.byOp[1], 0.5)) / 2
}

// mean is the mean latency of both ops. A stolen vCPU stops the process
// for milliseconds at a time: the requests underway then take that much
// longer and the rest none, so the stolen share comes out of the mean
// latency but not out of the median.
func (r *loopResult) mean() time.Duration {
	var sum time.Duration
	for _, l := range r.byOp {
		for _, d := range l {
			sum += d
		}
	}
	return sum / time.Duration(max(len(r.byOp[0])+len(r.byOp[1]), 1))
}

func opIndex(o op) int {
	if o.reseal {
		return 1
	}
	return 0
}

// closedLoop runs window workers, each sending its next request when the
// last completes, for dur.
func (d *deployment) closedLoop(seed int64, dur time.Duration, rep *report) *loopResult {
	ctx := context.Background()
	res := &loopResult{}
	var nFailed atomic.Int64
	var wg sync.WaitGroup
	from := takeUsage()
	deadline := from.wall.Add(dur)
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat [2][]time.Duration
			s := newOpStream(seed + int64(w)*7919)
			for {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				o := s.next()
				if d.do(ctx, w, o, rep) != nil {
					nFailed.Add(1)
					continue
				}
				lat[opIndex(o)] = append(lat[opIndex(o)], time.Since(start))
			}
			res.merge(lat, nil, nil)
		}(w)
	}
	wg.Wait()
	res.finish(from, nFailed.Load())
	return res
}

// openLoop sends Poisson arrivals at rate for dur, each request timed from
// the moment it was due.
func (d *deployment) openLoop(seed int64, rate float64, dur time.Duration, rep *report) (*loopResult, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	type job struct {
		o   op
		due time.Time
	}
	// The queue absorbs arrivals while every worker is busy; a full queue
	// stalls the generator, which then shows as lateness.
	jobs := make(chan job, 4096)
	res := &loopResult{}
	var nFailed atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat [2][]time.Duration
			var rtt, late []time.Duration
			for j := range jobs {
				sent := time.Now()
				err := d.do(ctx, w, j.o, rep)
				end := time.Now()
				if err != nil {
					nFailed.Add(1)
					continue
				}
				// A request released early is timed from its send.
				start := j.due
				if sent.Before(start) {
					start = sent
				}
				lat[opIndex(j.o)] = append(lat[opIndex(j.o)], end.Sub(start))
				rtt = append(rtt, end.Sub(sent))
				late = append(late, max(sent.Sub(j.due), 0))
			}
			res.merge(lat, rtt, late)
		}(w)
	}

	gaps := mrand.New(mrand.NewSource(seed))
	ops := newOpStream(seed + 1)
	from := takeUsage()
	end := from.wall.Add(dur)
	due := from.wall
	for {
		due = due.Add(time.Duration(gaps.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		// Wake at the first pending arrival and release with it every
		// arrival due within releaseWindow, so a wake-up serves a few.
		if wait := time.Until(due); wait > releaseWindow {
			if err = pace.sleep(wait - releaseWindow); err != nil {
				break
			}
		}
		jobs <- job{ops.next(), due}
	}
	close(jobs)
	wg.Wait()
	res.finish(from, nFailed.Load())
	return res, err
}

// nodeRun is what one series of epochs measured, summed over the epochs.
type nodeRun struct {
	attempted    int64
	failed       int64
	open, closed *loopResult
	profiles     [][]byte                    // CPU profiles of the closed loops
	server       map[nodeproto.Op][2]float64 // open loops: histogram count, sum (s)
	store        store.Stats                 // both loops
	replays      uint64
	perMember    map[string]int64
	spanSelf     map[obs.Phase]time.Duration // wall-clock span self times
	spanCount    map[obs.Phase]float64
	builds       []time.Duration // each epoch's deployment
	all          costs           // the whole series of epochs
}

// timeSetups deploys setupRounds times with the same inputs and returns
// each deployment's build time.
func timeSetups(cfg config, durable bool, originKey *rsa.PrivateKey) ([]time.Duration, error) {
	var setups []time.Duration
	for i := 0; i < setupRounds; i++ {
		rng := mrand.New(mrand.NewSource(^cfg.seed))
		t0 := time.Now()
		d, err := deploy(cfg, durable, false, rng, originKey)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		d.close()
		d.removeStores()
	}
	return setups, nil
}

// driveNodes runs epochs, each on a fresh deployment, until their
// measured time adds up to length. With traced set every deployment has
// the obs tracer and metrics attached and each closed loop runs under the
// CPU profile.
func driveNodes(cfg config, durable, traced bool, length time.Duration, originKey *rsa.PrivateKey, rep *report) (*nodeRun, error) {
	rng := mrand.New(mrand.NewSource(cfg.seed))
	run := &nodeRun{
		open: &loopResult{}, closed: &loopResult{},
		server:    map[nodeproto.Op][2]float64{},
		perMember: map[string]int64{},
		spanSelf:  map[obs.Phase]time.Duration{},
		spanCount: map[obs.Phase]float64{},
	}
	rate := float64(nodeRate)
	if durable {
		rate = fleetRate
	}
	from := takeUsage()
	for measured := time.Duration(0); measured < length; measured += epoch {
		// The last deployment's garbage is collected before the next one
		// is measured.
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(cfg, durable, traced, rng, originKey)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.builds = append(run.builds, time.Since(t0))
		err = run.epoch(d, rng, rate, min(epoch, length-measured), rep)
		d.close()
		d.removeStores()
		if err != nil {
			return nil, err
		}
	}
	run.all.add(span{from, takeUsage()})
	for _, l := range []*loopResult{run.open, run.closed} {
		l.sort()
		run.attempted += l.done + l.failed
		run.failed += l.failed
	}
	c := run.closed.cost
	fmt.Printf("# closed loop: %d requests in %.2fs over %d epochs, %.2f cores busy\n",
		run.closed.done, c.wall.Seconds(), len(run.closed.rates), c.cpu.Seconds()/c.wall.Seconds())
	fmt.Printf("# closed loop requests/s per epoch:")
	for _, r := range run.closed.rates {
		fmt.Printf(" %.0f", r)
	}
	fmt.Println()
	return run, nil
}

// epoch warms d up, runs the open and then the closed loop on it for
// length, checks its outputs and adds what it measured to the run.
func (run *nodeRun) epoch(d *deployment, rng *mrand.Rand, rate float64, length time.Duration, rep *report) error {
	att, fail, err := d.warmUp(rng.Int63(), rep)
	if err != nil {
		return err
	}
	run.attempted += att
	run.failed += fail

	storeBefore := d.storeStats()
	serverBefore := d.serverHist()
	open, err := d.openLoop(rng.Int63(), rate, length/2, rep)
	if err != nil {
		return err
	}
	serverAfter := d.serverHist()
	var prof bytes.Buffer
	if d.tracer != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	closed := d.closedLoop(rng.Int63(), length/2, rep)
	if d.tracer != nil {
		pprof.StopCPUProfile()
		run.profiles = append(run.profiles, prof.Bytes())
	}
	storeAfter := d.storeStats()
	d.close()
	d.checkOutputs(rep, storeAfter)
	if d.firstErr != nil {
		fmt.Printf("# first request error: %v\n", d.firstErr)
	}

	run.open.absorb(open)
	run.closed.absorb(closed)
	for op, after := range serverAfter {
		v := run.server[op]
		run.server[op] = [2]float64{v[0] + after[0] - serverBefore[op][0], v[1] + after[1] - serverBefore[op][1]}
	}
	run.store.Records += storeAfter.Records - storeBefore.Records
	run.store.Batches += storeAfter.Batches - storeBefore.Batches
	run.store.Syncs += storeAfter.Syncs - storeBefore.Syncs
	for m, c := range d.perMember {
		run.perMember[m] += c.Load()
	}
	if d.tracer != nil {
		run.replays += d.metrics.Counter("tinman_node_replay_hits_total").Value()
		recs := d.tracer.Records()
		for p, t := range obs.SelfTimes(recs) {
			run.spanSelf[p] += t
		}
		for _, r := range recs {
			run.spanCount[r.Phase]++
		}
	}
	return nil
}

// closedOps is the median over the epochs of the closed loop's completed
// requests per second.
func (r *nodeRun) closedOps() float64 { return medianFloat(r.closed.rates) }

// storeStats sums the members' store counters.
func (d *deployment) storeStats() store.Stats {
	var s store.Stats
	for _, st := range d.stores {
		x := st.Stats()
		s.Records += x.Records
		s.Batches += x.Batches
		s.Syncs += x.Syncs
	}
	return s
}

// serverHist reads the servers' per-op node_op latency histograms (traced
// runs only).
func (d *deployment) serverHist() map[nodeproto.Op][2]float64 {
	out := map[nodeproto.Op][2]float64{}
	if d.metrics == nil {
		return out
	}
	for _, o := range []nodeproto.Op{nodeproto.OpCatalog, nodeproto.OpReseal} {
		h := d.metrics.Histogram(fmt.Sprintf(`tinman_node_request_seconds{op=%q}`, o))
		out[o] = [2]float64{float64(h.Count()), h.Sum().Seconds()}
	}
	return out
}

// checkOutputs runs the post-run checks: sampled records decrypt to the
// cor; every acknowledged reseal has exactly one allowed audit entry and
// each device's audit sequence is gap-free; on the durable fleet the
// stores committed a record for every acknowledged write and no store file
// holds the cor plaintext.
func (d *deployment) checkOutputs(rep *report, st store.Stats) {
	for _, rec := range d.samples {
		if err := d.openRecord(rec); err != nil {
			rep.problem("sampled reseal record: %v", err)
			break
		}
	}

	// The log holds every reseal of the run; reading it one second of
	// append time at a time keeps a slice of it in memory, not a copy of
	// all of it.
	index := make(map[string]int, len(d.devices))
	for i, dev := range d.devices {
		index[dev] = i
	}
	seqs := make([][]uint64, len(d.devices))
	allowed := make([]int64, len(d.devices))
	end := time.Now()
	for _, svc := range d.services {
		var since time.Time // zero: from the first entry
		for until := d.started; ; until = until.Add(time.Second) {
			if until.After(end) {
				until = time.Time{} // zero: to the last entry
			}
			entries, err := svc.AuditQuery(context.Background(), audit.Query{CorID: benchCor, Since: since, Until: until})
			if err != nil {
				rep.problem("audit query: %v", err)
				return
			}
			for _, e := range entries {
				i, ok := index[e.DeviceID]
				if !ok {
					rep.problem("audit entry for unknown device %q", e.DeviceID)
					continue
				}
				seqs[i] = append(seqs[i], e.DeviceSeq)
				if e.Outcome == audit.OutcomeAllowed {
					allowed[i]++
				}
			}
			if until.IsZero() {
				break
			}
			since = until
		}
	}
	var acked int64
	for i, dev := range d.devices {
		want := d.acked[i].Load()
		acked += want
		s := seqs[i]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		for k, seq := range s {
			if seq != uint64(k+1) {
				rep.problem("device %s: audit sequence has %d at position %d", dev, seq, k+1)
				break
			}
		}
		if allowed[i] != want {
			rep.problem("device %s: %d acknowledged reseals but %d allowed audit entries", dev, want, allowed[i])
		}
	}

	if !d.durable {
		return
	}
	if st.Records < uint64(acked) {
		rep.problem("stores committed %d records for %d acknowledged reseals", st.Records, acked)
	}
	secret := []byte(d.plaintext)
	err := filepath.WalkDir(d.dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(b, secret) {
			rep.problem("store file %s holds the cor plaintext", filepath.Base(path))
		}
		return nil
	})
	if err != nil {
		rep.problem("scanning store files: %v", err)
	}
}

func runNodeLoad(cfg config, durable bool) (*report, error) {
	rep := newReport()
	// The origin server's key belongs to the simulated web service, not to
	// the trusted node, so it is made once and outside set-up.
	originKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	setups, err := timeSetups(cfg, durable, originKey)
	if err != nil {
		return nil, err
	}
	base, err := driveNodes(cfg, durable, false, phaseLength(cfg), originKey, rep)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = base.attempted, base.failed
	o := base.open
	if o.done == 0 || base.closed.done == 0 {
		return nil, fmt.Errorf("a load phase completed no request")
	}
	closed := base.closed
	rep.set("setup_s", unstolen(median(append(setups, base.builds...)), base.all.stealShare()).Seconds(), "s")
	rep.set("ops_per_s", base.closedOps(), "1/s")
	rep.set("latency_ms", ms(median(closed.latencies)), "ms")
	setWallClock(rep, base.all.stealShare(), float64(closed.done)/closed.cost.wall.Seconds(), closed.mean())
	rep.set("loadgen.open_p50_ms", ms(o.typical()), "ms")
	rep.set("loadgen.p90_ms", ms(o.quantile(0.90)), "ms")
	rep.set("loadgen.p99_ms", ms(o.quantile(0.99)), "ms")
	rep.set("loadgen.late_ms_p99", ms(quantile(o.late, 0.99)), "ms")
	// Cost per request is taken in the closed loop, where the cores never
	// idle: at a fixed offered rate it also counts the scheduler's idle
	// spinning, which shrinks as stolen time makes requests arrive in
	// bursts (on the node, 44 us per request at 15% steal, 28 us at 55%;
	// 18 to 20 us in the closed loop).
	rep.set("cpu_us_per_op", us(closed.cost.cpu)/float64(closed.done), "us")
	rep.set("allocs_per_op", closed.cost.mallocs/float64(closed.done), "count")
	rep.set("error_rate", ratio(float64(base.failed), float64(base.attempted)), "ratio")
	fmt.Printf("# cpu per request in the open loop: %.2f us\n", us(o.cost.cpu)/float64(o.done))
	fmt.Printf("# open loop: %d requests in %.2fs (offered %.0f/s), generator late p99 %.3f ms\n",
		o.done, o.cost.wall.Seconds(), float64(o.done)/o.cost.wall.Seconds(), ms(quantile(o.late, 0.99)))
	if !cfg.trace {
		return rep, nil
	}

	closedOps := base.closedOps()
	tr, err := driveNodes(cfg, durable, true, phaseLength(cfg), originKey, rep)
	if err != nil {
		return nil, err
	}
	o, closed = tr.open, tr.closed
	if o.done == 0 || closed.done == 0 {
		return nil, fmt.Errorf("a traced load phase completed no request")
	}
	rep.set("obs.trace_overhead", 1-tr.closedOps()/closedOps, "ratio")
	rep.set("runtime.gc_cpu_share", closed.cost.gcShare(), "ratio")
	if err := setLayerCPU(rep, tr.profiles, closed.cost.cpu, float64(closed.done)); err != nil {
		return nil, err
	}

	// Server-side time per op over the open loop, and the rest of the
	// client's round trip: codec, sockets and batching waits.
	var serverCount, serverSum float64
	for _, op := range []nodeproto.Op{nodeproto.OpCatalog, nodeproto.OpReseal} {
		c, s := tr.server[op][0], tr.server[op][1]
		serverCount += c
		serverSum += s
		rep.set("nodeproto.server_us."+string(op), 1e6*ratio(s, c), "us")
	}
	rep.set("nodeproto.wire_us", us(quantile(o.rtt, 0.50))-1e6*ratio(serverSum, serverCount), "us")

	// Wall-clock self time of the node's policy and vault spans, from each
	// epoch's flight recorder: its most recent spans, the end of the
	// closed loop.
	rep.set("policy.check_us", us(tr.spanSelf[obs.PhasePolicyCheck])/max(tr.spanCount[obs.PhasePolicyCheck], 1), "us")
	rep.set("cor.vault_open_us", us(tr.spanSelf[obs.PhaseVaultOpen])/max(tr.spanCount[obs.PhaseVaultOpen], 1), "us")

	rep.set("nodeproto.replays_per_req", ratio(float64(tr.replays), float64(tr.attempted)), "ratio")
	var busiest, all int64
	for _, c := range tr.perMember {
		all += c
		busiest = max(busiest, c)
	}
	rep.set("fleet.max_member_share", ratio(float64(busiest), float64(all)), "ratio")
	writes := float64(tr.store.Records)
	rep.set("store.fsyncs_per_write", ratio(float64(tr.store.Syncs), writes), "ratio")
	rep.set("store.records_per_batch", ratio(writes, float64(tr.store.Batches)), "count")
	return rep, nil
}
