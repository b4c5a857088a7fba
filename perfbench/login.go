package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
	"tinman/internal/obs"
)

// The login workload is a closed loop of one device. Each session builds a
// fresh world (TinMan on, Wi-Fi, speculative warm-up on) and runs the first
// post-install login of each paper app in a seeded order.

// setupRounds is how many times a workload sets up before measuring.
// setup_s is the median of these and of the set-ups the measured loop
// makes (one per login session or node epoch), so that it is sampled
// across the whole run like the other metrics.
const setupRounds = 15

// placeholderMarker prefixes every cor placeholder; an origin server that
// sees it received the device's stand-in instead of the secret.
const placeholderMarker = "TINMAN-PLACEHOLDER"

// virtualPhases maps the obs phases a traced login records to the layer
// metric reporting their summed self time. Phases not listed (the login
// root, taint-trigger events, node-side policy and vault spans, packets)
// fall into obs.unattributed_virtual_ms.
var virtualPhases = []struct {
	phase obs.Phase
	name  string
}{
	{obs.PhaseDeviceExec, "core.device_exec_virtual_ms"},
	{obs.PhaseControlRPC, "core.control_rpc_virtual_ms"},
	{obs.PhaseNodeOp, "core.node_op_virtual_ms"},
	{obs.PhaseDSMMigrate, "dsm.migrate_virtual_ms"},
	{obs.PhaseSyncBack, "dsm.sync_back_virtual_ms"},
	{obs.PhaseDSMWarmup, "dsm.warmup_virtual_ms"},
	{obs.PhaseNodeExec, "node.exec_virtual_ms"},
	{obs.PhaseTLSInject, "tlssim.inject_virtual_ms"},
	{obs.PhaseTCPReplace, "tcpsim.replace_virtual_ms"},
	{obs.PhaseHTTPWait, "httpsim.wait_virtual_ms"},
}

// loginCounters is a snapshot of one app's cumulative counters. core.Report
// accumulates across Run calls in one world, except Total (the last run)
// and TriggerSyncBytes (the last trigger), so per-login figures are
// differences between snapshots taken around the Login call.
type loginCounters struct {
	rep        core.Report
	instrs     uint64
	fastInstrs uint64
}

func snapshotCounters(app *core.App) loginCounters {
	return loginCounters{rep: app.Report, instrs: app.VM().Instrs, fastInstrs: app.VM().FastInstrs}
}

// loginDelta is what one login added to its app's counters.
type loginDelta struct {
	total        time.Duration // modeled latency, core.Report.Total
	deviceInstrs uint64
	nodeInstrs   uint64
	instrs       uint64 // device VM instructions, fast path included
	fastInstrs   uint64
	migrations   int
	syncs        int
	warmupBytes  int
	dirtyBytes   int
	triggerBytes int // what the login's last offload trigger shipped
	warmHits     int
	warmMisses   int
}

func deltaOf(before, after loginCounters) loginDelta {
	b, a := before.rep, after.rep
	return loginDelta{
		total:        a.Total,
		deviceInstrs: a.DeviceInstrs - b.DeviceInstrs,
		nodeInstrs:   a.NodeInstrs - b.NodeInstrs,
		instrs:       after.instrs - before.instrs,
		fastInstrs:   after.fastInstrs - before.fastInstrs,
		migrations:   a.Migrations - b.Migrations,
		syncs:        a.Syncs - b.Syncs,
		warmupBytes:  a.WarmupBytes - b.WarmupBytes,
		dirtyBytes:   a.DirtyBytes - b.DirtyBytes,
		triggerBytes: a.TriggerSyncBytes,
		warmHits:     a.WarmHits - b.WarmHits,
		warmMisses:   a.WarmMisses - b.WarmMisses,
	}
}

// newSession builds one device's world for a session.
func newSession(worldSeed int64) (*apps.Env, error) {
	return apps.NewLoginEnv(apps.EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: worldSeed})
}

// loginOnce runs one app's login in env, checks its outputs, and returns
// the wall time and counter delta.
func loginOnce(env *apps.Env, name string, rep *report) (time.Duration, loginDelta, error) {
	spec, ok := apps.SpecByName(name)
	if !ok {
		return 0, loginDelta{}, fmt.Errorf("unknown app %q", name)
	}
	app := env.Apps[name]
	before := snapshotCounters(app)
	t0 := time.Now()
	_, err := env.Login(name) // fails unless the app's login returned 1
	wall := time.Since(t0)
	if err != nil {
		return wall, loginDelta{}, err
	}
	d := deltaOf(before, snapshotCounters(app))
	srv := env.Servers[name]
	if !srv.SawSubstring(apps.PasswordHash(spec.Password)) {
		rep.problem("%s: origin server never saw the real password hash", name)
	}
	if srv.SawSubstring(placeholderMarker) {
		rep.problem("%s: origin server saw a cor placeholder", name)
	}
	if d.migrations <= 0 {
		rep.problem("%s: login did not offload (0 migrations)", name)
	}
	return wall, d, nil
}

// loginRun is the outcome of one timed login loop.
type loginRun struct {
	logins  int64
	failed  int64
	cost    costs
	walls   []time.Duration
	builds  []time.Duration
	deltas  []loginDelta
	phases  map[string]time.Duration // virtual self time per metric name
	resid   time.Duration            // virtual time no listed phase covers
	profile []byte
}

// loginLoop runs whole sessions until the deadline. With traced set it
// attaches the world's obs tracer and a CPU profile.
func loginLoop(cfg config, traced bool, rep *report) (*loginRun, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	run := &loginRun{phases: map[string]time.Duration{}}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	from := takeUsage()
	deadline := from.wall.Add(phaseLength(cfg))
	for time.Now().Before(deadline) {
		worldSeed := rng.Int63()
		order := rng.Perm(len(apps.LoginApps))
		t0 := time.Now()
		env, err := newSession(worldSeed)
		if err != nil {
			return nil, err
		}
		run.builds = append(run.builds, time.Since(t0))
		var tr *obs.Tracer
		if traced {
			tr = env.World.Observe(1 << 15)
		}
		for _, i := range order {
			name := apps.LoginApps[i].Name
			root := tr.StartSpan(obs.PhaseLogin, obs.App(name))
			wall, d, err := loginOnce(env, name, rep)
			root.End()
			run.logins++
			if err != nil {
				run.failed++
				rep.problem("%s login (world seed %d): %v", name, worldSeed, err)
				continue
			}
			run.walls = append(run.walls, wall)
			run.deltas = append(run.deltas, d)
			if traced {
				attributeLogin(tr, name, d.total, run, rep)
			}
		}
	}
	run.cost.add(span{from, takeUsage()})
	if traced {
		pprof.StopCPUProfile()
		run.profile = prof.Bytes()
	}
	return run, nil
}

// attributeLogin folds one traced login's span tree into the per-phase
// virtual self times, checking that the login root covers exactly the
// modeled latency and that the listed phases leave a small residual.
func attributeLogin(tr *obs.Tracer, name string, total time.Duration, run *loginRun, rep *report) {
	defer tr.Reset()
	recs := tr.Records()
	if tr.Dropped() > 0 {
		rep.problem("%s: tracer dropped %d spans", name, tr.Dropped())
	}
	var root time.Duration
	for _, r := range obs.Roots(recs) {
		if r.Phase == obs.PhaseLogin {
			root = r.Duration()
		}
	}
	if root != total {
		rep.problem("%s: login span %v != modeled latency %v", name, root, total)
	}
	self := obs.SelfTimes(recs)
	resid := total
	for _, p := range virtualPhases {
		run.phases[p.name] += self[p.phase]
		resid -= self[p.phase]
	}
	run.resid += resid
	if resid < -total/20 || resid > total/20 {
		rep.problem("%s: phases leave %v of %v unattributed (over 5%%)", name, resid, total)
	}
}

func runLogin(cfg config) (*report, error) {
	rep := newReport()

	// Set-up: the world build a session starts with. The first build also
	// generates the origin servers' RSA key.
	rng := rand.New(rand.NewSource(^cfg.seed))
	var setups []time.Duration
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if _, err := newSession(rng.Int63()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	base, err := loginLoop(cfg, false, rep)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = base.logins, base.failed
	if len(base.walls) == 0 {
		return nil, fmt.Errorf("no login completed in %v", phaseLength(cfg))
	}
	n := float64(len(base.walls))
	steal := base.cost.stealShare()
	opsPerSec := n / base.cost.vmWall().Seconds()
	sortDurations(base.walls)
	rep.set("setup_s", unstolen(median(append(setups, base.builds...)), steal).Seconds(), "s")
	rep.set("ops_per_s", opsPerSec, "1/s")
	rep.set("latency_ms", ms(unstolen(quantile(base.walls, 0.50), steal)), "ms")
	setWallClock(rep, steal, n/base.cost.wall.Seconds(), quantile(base.walls, 0.50))
	rep.set("cpu_us_per_op", us(base.cost.cpu)/n, "us")
	rep.set("loadgen.p90_ms", ms(quantile(base.walls, 0.90)), "ms")
	rep.set("loadgen.p99_ms", ms(quantile(base.walls, 0.99)), "ms")
	rep.set("allocs_per_op", base.cost.mallocs/n, "count")
	rep.set("error_rate", ratio(float64(base.failed), float64(base.logins)), "ratio")
	if !cfg.trace {
		return rep, nil
	}

	tr, err := loginLoop(cfg, true, rep)
	if err != nil {
		return nil, err
	}
	n = float64(len(tr.deltas))
	if n == 0 {
		return nil, fmt.Errorf("no traced login completed in %v", phaseLength(cfg))
	}
	var sum loginDelta
	virtual := make([]time.Duration, 0, len(tr.deltas))
	for _, d := range tr.deltas {
		virtual = append(virtual, d.total)
		sum.deviceInstrs += d.deviceInstrs
		sum.nodeInstrs += d.nodeInstrs
		sum.instrs += d.instrs
		sum.fastInstrs += d.fastInstrs
		sum.migrations += d.migrations
		sum.syncs += d.syncs
		sum.warmupBytes += d.warmupBytes
		sum.dirtyBytes += d.dirtyBytes
		sum.triggerBytes += d.triggerBytes
		sum.warmHits += d.warmHits
		sum.warmMisses += d.warmMisses
		sum.total += d.total
	}
	sortDurations(virtual)
	rep.set("virtual_login_ms", ms(quantile(virtual, 0.50)), "ms")
	rep.set("vm.device_instrs_per_login", float64(sum.deviceInstrs)/n, "count")
	rep.set("vm.node_instrs_per_login", float64(sum.nodeInstrs)/n, "count")
	rep.set("vm.fast_share", ratio(float64(sum.fastInstrs), float64(sum.instrs)), "ratio")
	rep.set("dsm.migrations_per_login", float64(sum.migrations)/n, "count")
	rep.set("dsm.syncs_per_login", float64(sum.syncs)/n, "count")
	rep.set("dsm.trigger_sync_bytes", float64(sum.triggerBytes)/n, "bytes")
	rep.set("dsm.warmup_bytes_per_login", float64(sum.warmupBytes)/n, "bytes")
	rep.set("dsm.dirty_bytes_per_login", float64(sum.dirtyBytes)/n, "bytes")
	rep.set("dsm.warm_hit_ratio", ratio(float64(sum.warmHits), float64(sum.warmHits+sum.warmMisses)), "ratio")
	for _, p := range virtualPhases {
		rep.set(p.name, ms(tr.phases[p.name])/n, "ms")
	}
	rep.set("obs.unattributed_virtual_ms", ms(tr.resid)/n, "ms")
	var builds time.Duration
	for _, b := range tr.builds {
		builds += b
	}
	rep.set("apps.env_build_ms", ms(builds)/float64(len(tr.builds)), "ms")
	rep.set("runtime.gc_cpu_share", tr.cost.gcShare(), "ratio")
	tracedOps := n / tr.cost.vmWall().Seconds()
	rep.set("obs.trace_overhead", 1-tracedOps/opsPerSec, "ratio")
	if err := setLayerCPU(rep, [][]byte{tr.profile}, tr.cost.cpu, n); err != nil {
		return nil, err
	}
	fmt.Printf("# login: %d logins traced, mean virtual %.1f ms, unattributed %.3f ms per login\n",
		len(tr.deltas), ms(sum.total)/n, ms(tr.resid)/n)
	return rep, nil
}
