package fleet

// Test scaffolding: a minimal device half (own VM, odd heap IDs, DSM
// endpoint resolving cors to placeholders) driving real offloads against
// whichever member the fleet routes it to. Mirrors internal/node's test
// device.

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"testing"

	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/node"
	"tinman/internal/taint"
	"tinman/internal/tlssim"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// loginSrc is the paper's running example (fig 5 / fig 11): hashing the
// password and concatenating the request mints a derived cor on the node.
const loginSrc = `
class Bank
  method login 2 8          ; r0 = account, r1 = passwd
    hash r2, r1
    conststr r3, "user="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    return r7
  end
end`

type devHalf struct {
	id          string
	prog        *vm.Program
	vm          *vm.VM
	ep          *dsm.Endpoint
	lastTrigger taint.Tag
}

type placeholderResolver struct{ store *cor.Store }

func (r *placeholderResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	for _, v := range r.store.DeviceViews() {
		if v.ID == id {
			return v.Placeholder, taint.Bit(v.Bit), true
		}
	}
	return cor.Placeholder(id, length), taint.None, true
}

func (r *placeholderResolver) MaskID(o *vm.Object) string { return "" }

// newDevHalf builds a fresh device half against svc — also the re-warm
// path after a failover, where the device's DSM state restarts from scratch
// exactly like PR 4's failed-offload reset.
func newDevHalf(t testing.TB, svc *node.Service, deviceID string) *devHalf {
	t.Helper()
	prog, err := asm.Assemble("login", loginSrc)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	d := &devHalf{
		id:   deviceID,
		prog: prog,
		vm:   machine,
		ep:   dsm.NewEndpoint(dsm.DeviceSide, machine, &placeholderResolver{store: svc.Cors}),
	}
	machine.Hooks.OnTaintedAccess = func(tag taint.Tag, ev taint.Event) bool {
		d.lastTrigger = tag
		return true
	}
	return d
}

// install registers the device's app on svc and returns the binary hash.
func (d *devHalf) install(t testing.TB, svc *node.Service) string {
	t.Helper()
	res, err := svc.Install(context.Background(), node.InstallRequest{
		DeviceID: d.id, Name: "login", Source: loginSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Hash
}

// warmup streams the device's framework heap to svc as background warm-up
// chunks and acks the epoch, leaving the device ready to ship only the
// dirty delta at trigger time (the speculative pre-migration pipeline).
func (d *devHalf) warmup(t testing.TB, svc *node.Service) uint64 {
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
	return epoch
}

// runToTrigger executes the login method until the tainted access stops it
// and captures the trigger-time migration; the thread is returned so a
// warm-miss fallback can recapture from it.
func (d *devHalf) runToTrigger(t testing.TB, svc *node.Service, corID string) (*vm.Thread, vm.StopReason, *dsm.Migration) {
	t.Helper()
	var view cor.DeviceView
	for _, v := range svc.Cors.DeviceViews() {
		if v.ID == corID {
			view = v
		}
	}
	if view.ID == "" {
		t.Fatalf("cor %s not in catalog", corID)
	}
	placeholder := d.vm.NewTaintedString(view.Placeholder, taint.Bit(view.Bit))
	placeholder.CorID = view.ID
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

// finish ships mig to svc and applies the reply, returning the device's
// masked view of the result.
func (d *devHalf) finish(t testing.TB, svc *node.Service, mig *dsm.Migration) (*vm.Object, error) {
	t.Helper()
	res, err := svc.Offload(context.Background(), d.id, "login", mig.Encode())
	if err != nil {
		return nil, err
	}
	back, err := dsm.DecodeMigration(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ep.ApplyMigration(back); err != nil {
		t.Fatal(err)
	}
	out, err := d.ep.DecodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ref == nil {
		t.Fatal("no result object")
	}
	return out.Ref, nil
}

// login runs one offload round against svc and returns the device's masked
// view of the request string.
func (d *devHalf) login(t testing.TB, svc *node.Service, corID string) (*vm.Object, error) {
	t.Helper()
	var view cor.DeviceView
	for _, v := range svc.Cors.DeviceViews() {
		if v.ID == corID {
			view = v
		}
	}
	if view.ID == "" {
		t.Fatalf("cor %s not in catalog", corID)
	}
	placeholder := d.vm.NewTaintedString(view.Placeholder, taint.Bit(view.Bit))
	placeholder.CorID = view.ID
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
	res, err := svc.Offload(context.Background(), d.id, "login", mig.Encode())
	if err != nil {
		return nil, err
	}
	back, err := dsm.DecodeMigration(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ep.ApplyMigration(back); err != nil {
		t.Fatal(err)
	}
	out, err := d.ep.DecodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ref == nil {
		t.Fatal("no result object")
	}
	return out.Ref, nil
}

// sessionState returns one marshaled TLS ≥1.1 session state; tests share it
// across devices (it is device-supplied input, not node state).
func sessionState(t testing.TB) json.RawMessage {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cs, _, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cs.Export())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
