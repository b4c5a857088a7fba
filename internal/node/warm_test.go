package node

import (
	"context"
	"errors"
	"testing"

	"tinman/internal/dsm"
	"tinman/internal/taint"
	"tinman/internal/vm"
)

// warmup streams the device's full framework heap to svc as background
// warm-up chunks and marks the epoch acked, leaving the device ready to
// ship only the dirty delta at trigger time.
func (d *deviceHalf) warmup(t testing.TB, svc *Service) uint64 {
	t.Helper()
	epoch := d.ep.BeginWarmup()
	if epoch == 0 {
		t.Fatal("BeginWarmup refused on a fresh endpoint")
	}
	for {
		c, wire, err := d.ep.CaptureWarmup(4, nil)
		if err != nil {
			t.Fatalf("CaptureWarmup: %v", err)
		}
		if _, _, err := svc.WarmupChunk(context.Background(), d.id, "login", wire); err != nil {
			t.Fatalf("WarmupChunk: %v", err)
		}
		if c.Final {
			break
		}
	}
	d.ep.WarmupAcked()
	if !d.ep.WarmupReady() {
		t.Fatal("warm-up not ready after final ack")
	}
	return epoch
}

// runToTrigger executes the login method on the device until the tainted
// access stops it and captures the trigger-time migration. The thread is
// returned so a warm-miss fallback can recapture from it.
func (d *deviceHalf) runToTrigger(t testing.TB, svc *Service, corID string) (*vm.Thread, vm.StopReason, *dsm.Migration) {
	t.Helper()
	views, err := svc.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var placeholder *vm.Object
	for _, v := range views {
		if v.ID == corID {
			placeholder = d.vm.NewTaintedString(v.Placeholder, taint.Bit(v.Bit))
			placeholder.CorID = v.ID
		}
	}
	if placeholder == nil {
		t.Fatalf("cor %s not in catalog", corID)
	}
	account := d.vm.NewString("alice")
	th, err := d.vm.NewThread(d.prog.Method("Bank", "login"), vm.RefVal(account), vm.RefVal(placeholder))
	if err != nil {
		t.Fatal(err)
	}
	stop, err := th.Run()
	if err != nil || stop != vm.StopMigrateTaint {
		t.Fatalf("device run: stop=%v err=%v", stop, err)
	}
	mig, err := d.ep.CaptureMigration(th, stop)
	if err != nil {
		t.Fatal(err)
	}
	mig.TriggerTag = uint64(d.lastTrigger)
	return th, stop, mig
}

// TestWarmPathOffloadHit is the node half of the speculative warm-up happy
// path: after the background stream completes, the trigger migration is a
// non-initial delta carrying the warm epoch, and the node admits it against
// the buffered chunks — counted as a warm hit, not a full sync.
func TestWarmPathOffloadHit(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	svc.BindApp("pw", hash)

	epoch := dev.warmup(t, svc)
	if ws := svc.WarmStats(); ws.Chunks == 0 {
		t.Fatalf("no warm chunks counted: %+v", ws)
	}

	_, _, mig := dev.runToTrigger(t, svc, "pw")
	if mig.WarmEpoch != epoch {
		t.Fatalf("trigger migration carries epoch %d, warm-up minted %d", mig.WarmEpoch, epoch)
	}
	if mig.Initial {
		t.Fatal("warm-path trigger migration still marked Initial")
	}

	res, err := svc.Offload(ctx, "dev-1", "login", mig.Encode())
	if err != nil {
		t.Fatalf("warm offload: %v", err)
	}
	back, err := dsm.DecodeMigration(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ep.ApplyMigration(back); err != nil {
		t.Fatal(err)
	}
	out, err := dev.ep.DecodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ref == nil || out.Ref.CorID == "" {
		t.Fatalf("warm offload result not a masked derived cor: %+v", out)
	}

	ws := svc.WarmStats()
	if ws.Hits != 1 || ws.Misses != 0 {
		t.Fatalf("warm stats after hit = %+v", ws)
	}
	if ws.AvgResumeNs < 0 {
		t.Fatalf("negative resume latency: %+v", ws)
	}
}

// TestHandoffDropsWarmState pins the warm-state lifecycle across a shard
// move: epochs never travel in an export, so a warm-path migration chasing
// the handoff fails ErrWarmStale on the importing node, and the device's
// reset-and-resend-full fallback completes the login there.
func TestHandoffDropsWarmState(t *testing.T) {
	ctx := context.Background()
	src := New(Options{})
	dst := New(Options{})
	for _, svc := range []*Service{src, dst} {
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
			t.Fatal(err)
		}
	}
	dev := newDeviceHalf(t, src, "dev-1", "login", loginSrc)
	hash := dev.install(t, src, loginSrc)
	src.BindApp("pw", hash)
	dst.BindApp("pw", hash)

	// A framework heap worth streaming: warm-up ships these in the
	// background, so the trigger delta stays a fraction of the snapshot.
	for i := 0; i < 12; i++ {
		dev.vm.NewString("framework-object-padding-padding")
	}
	epoch := dev.warmup(t, src)

	exp, err := src.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportShard(ctx, exp); err != nil {
		t.Fatal(err)
	}

	// The device has no idea the shard moved: its trigger migration still
	// declares the warm epoch it streamed to the old node.
	th, stop, mig := dev.runToTrigger(t, src, "pw")
	if mig.WarmEpoch != epoch {
		t.Fatalf("trigger migration epoch %d, want %d", mig.WarmEpoch, epoch)
	}
	if _, err := dst.Offload(ctx, "dev-1", "login", mig.Encode()); !errors.Is(err, ErrWarmStale) {
		t.Fatalf("warm offload after handoff: %v, want ErrWarmStale", err)
	}
	ws := dst.WarmStats()
	if ws.Misses != 1 || ws.Hits != 0 {
		t.Fatalf("importing node warm stats = %+v", ws)
	}

	// Fallback: reset the send state and recapture a full cold snapshot
	// from the same stopped thread — the retry the core driver performs.
	dev.ep.ResetWarmup()
	mig2, err := dev.ep.CaptureMigration(th, stop)
	if err != nil {
		t.Fatal(err)
	}
	mig2.TriggerTag = mig.TriggerTag
	if !mig2.Initial || mig2.WarmEpoch != 0 {
		t.Fatalf("fallback migration Initial=%v WarmEpoch=%d, want full cold snapshot", mig2.Initial, mig2.WarmEpoch)
	}
	if len(mig2.Objects) <= len(mig.Objects) {
		t.Fatalf("fallback snapshot (%d objects) not larger than warm delta (%d)", len(mig2.Objects), len(mig.Objects))
	}
	res, err := dst.Offload(ctx, "dev-1", "login", mig2.Encode())
	if err != nil {
		t.Fatalf("cold fallback offload after handoff: %v", err)
	}
	back, err := dsm.DecodeMigration(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ep.ApplyMigration(back); err != nil {
		t.Fatal(err)
	}
	out, err := dev.ep.DecodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ref == nil || out.Ref.CorID == "" {
		t.Fatalf("fallback result not a masked derived cor: %+v", out)
	}

	// The old node retains nothing to mis-admit: a second warm-path attempt
	// against it is an unknown app, not a stale admission.
	if _, err := src.Offload(ctx, "dev-1", "login", mig.Encode()); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("source offload after detach: %v, want ErrUnknownApp", err)
	}
}

// TestColdInitialInvalidatesBufferedWarmup covers the reconnect race: a
// device that gave up on its warm-up (reset, resent full) must not leave a
// half-buffered epoch behind that a later migration could collide with.
func TestColdInitialInvalidatesBufferedWarmup(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	svc.BindApp("pw", hash)

	// Ship only the first chunk of a warm-up, then abandon it device-side.
	if dev.ep.BeginWarmup() == 0 {
		t.Fatal("BeginWarmup refused")
	}
	_, wire, err := dev.ep.CaptureWarmup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.WarmupChunk(ctx, "dev-1", "login", wire); err != nil {
		t.Fatal(err)
	}
	dev.ep.ResetWarmup()

	// The cold full snapshot drops the torn buffer and completes normally.
	_, _, mig := dev.runToTrigger(t, svc, "pw")
	if !mig.Initial || mig.WarmEpoch != 0 {
		t.Fatalf("post-reset migration Initial=%v WarmEpoch=%d, want cold", mig.Initial, mig.WarmEpoch)
	}
	if _, err := svc.Offload(ctx, "dev-1", "login", mig.Encode()); err != nil {
		t.Fatalf("cold offload with torn warm buffer pending: %v", err)
	}
	ws := svc.WarmStats()
	if ws.Hits != 0 || ws.Misses != 0 {
		t.Fatalf("cold offload moved warm counters: %+v", ws)
	}
}
