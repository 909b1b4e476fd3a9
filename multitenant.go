package ccai

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/telemetry"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// MultiPlatform implements the paper's §9 deployment extension: one
// PCIe-SC chassis (a core.Mux) serving several (TVM, xPU) pairs with
// fully isolated keys, policies and transfer regions per tenant. Each
// tenant sees exactly the single-tenant programming model (an Adaptor,
// a native driver, RunTask); isolation between tenants is enforced by
// the mux's identifier-based dispatch plus the usual fail-closed
// filters.
type MultiPlatform struct {
	Host    *pcie.Bus
	Bridge  *HostBridge
	IOMMU   *mem.IOMMU
	Mux     *core.Mux
	Tenants []*Tenant
	space   *mem.Space

	// Obs is the chassis-wide observability hub (nil unless Observe was
	// called): one registry and tracer shared by every tenant's pipeline
	// and by any Scheduler serving the chassis.
	Obs *obsv.Hub
	// Tel is the live telemetry plane (nil unless WithTelemetry).
	Tel *telemetry.Plane

	// llmSrv is the chassis's continuous-batching inference server,
	// started lazily by the first OpenSession (see inference.go).
	llmMu    sync.Mutex
	llmSrv   *llmServer
	llmCfg   llm.EngineConfig
	llmFault atomic.Pointer[func(point string) bool]
}

// Telemetry returns the live telemetry plane, nil when not attached.
func (mp *MultiPlatform) Telemetry() *telemetry.Plane { return mp.Tel }

// Observe enables the observability layer for the whole chassis and
// wires it through every tenant's pipeline components. Call before
// EstablishTrust so the per-tenant drivers are instrumented too;
// calling it again is a no-op. It returns the hub for convenience.
func (mp *MultiPlatform) Observe() *obsv.Hub {
	if mp.Obs == nil {
		mp.Obs = obsv.NewHub()
		for _, t := range mp.Tenants {
			t.Device.SetObserver(mp.Obs)
			t.SC.SetObserver(mp.Obs)
			t.Adaptor.SetObserver(mp.Obs)
			if t.Driver != nil {
				t.Driver.SetObserver(mp.Obs)
			}
		}
	}
	return mp.Obs
}

// Observability returns the chassis hub, nil when observability is
// off. All obsv types no-op on nil, so callers may chain freely:
// mp.Observability().T().Spans() is safe either way.
func (mp *MultiPlatform) Observability() *obsv.Hub { return mp.Obs }

// MetricsSnapshot returns a point-in-time copy of every metric. The
// zero Snapshot is returned when observability is off.
func (mp *MultiPlatform) MetricsSnapshot() obsv.Snapshot { return mp.Obs.Reg().Snapshot() }

// WriteTimeline exports every recorded span as Chrome trace-event
// JSON. ErrObserveOff is returned when observability is off.
func (mp *MultiPlatform) WriteTimeline(w io.Writer) error {
	if mp.Obs == nil {
		return ErrObserveOff
	}
	return mp.Obs.Tracer.WriteChromeTrace(w)
}

// Tenant is one (TVM, xPU) slice of a MultiPlatform. A tenant's own
// pipeline (Adaptor → SC unit → device) is single-threaded: mu
// serializes EstablishTrust, RunTask, and Close. Distinct tenants run
// fully concurrently — the layers they share (host bus, bridge, mux,
// IOMMU, address space) are individually thread-safe.
type Tenant struct {
	mu      sync.Mutex
	Index   int
	TVMID   pcie.ID
	XPUID   pcie.ID
	Guest   *tvm.Guest
	Device  *xpu.Device
	SC      *core.Controller
	Adaptor *adaptor.Adaptor
	Driver  *tvm.Driver

	internal *pcie.Bus
	shared   pcie.Region
	ring     *adaptor.Region
	tvmKeys  *secmem.KeyStore
	trusted  bool
	gen      int // trust generation: 1 = first attest, 2+ = re-trust
	parent   *MultiPlatform
}

// Per-tenant address strides: tenant i's windows are offset by
// i*tenantStride from the base map.
const tenantStride = 0x0100_0000

// NewMultiPlatform assembles one chassis serving len(profiles) tenants,
// tenant i owning an instance of profiles[i]. Options are optional and
// backward-compatible: WithObserve enables the chassis hub (same as
// calling Observe()), WithTelemetry additionally attaches the live
// telemetry plane with one bearer token per tenant; device-shape
// options (WithXPU, WithMode, ...) do not apply here and are ignored.
func NewMultiPlatform(profiles []xpu.Profile, options ...Option) (*MultiPlatform, error) {
	if len(profiles) == 0 || len(profiles) > 8 {
		return nil, fmt.Errorf("ccai: 1-8 tenants supported, got %d", len(profiles))
	}
	var cfg Config
	for _, opt := range options {
		opt(&cfg)
	}
	mp := &MultiPlatform{
		Host:   pcie.NewBus("host"),
		IOMMU:  mem.NewIOMMU(),
		space:  mem.NewSpace(),
		Mux:    core.NewMux(SCID),
		llmCfg: cfg.LLM,
	}
	mp.Bridge = &HostBridge{id: HostBridgeID, space: mp.space, iommu: mp.IOMMU, bus: mp.Host}
	mp.Host.Attach(mp.Bridge)
	mp.Host.Attach(mp.Mux)
	if err := mp.Host.Claim(HostBridgeID, pcie.Region{Base: msiBase, Size: msiSize, Name: "msi"}); err != nil {
		return nil, err
	}

	for i, profile := range profiles {
		if err := mp.addTenant(i, profile); err != nil {
			return nil, fmt.Errorf("ccai: tenant %d: %w", i, err)
		}
	}
	if cfg.Observe || cfg.Telemetry != nil {
		mp.Observe()
	}
	if cfg.Telemetry != nil {
		tel, err := telemetry.Attach(mp.Obs, *cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		for i := range mp.Tenants {
			tel.RegisterTenant(tenantLabel(i))
		}
		mp.Tel = tel
	}
	return mp, nil
}

func (mp *MultiPlatform) addTenant(i int, profile xpu.Profile) error {
	stride := uint64(i) * tenantStride
	tvmID := pcie.MakeID(0, uint8(1+i), 0)
	xpuID := pcie.MakeID(uint8(2+i), 0, 0)
	scUnitID := pcie.MakeID(1, 0, uint8(i)) // virtual function per slice
	privBase := uint64(privateBase) + stride
	shBase := uint64(sharedBase) + stride
	xpuWin := pcie.Region{Base: uint64(xpuBARBase) + stride, Size: xpu.BAR0Size, Name: fmt.Sprintf("xpu%d-window", i)}
	scBar := pcie.Region{Base: uint64(scBARBase) + stride, Size: core.SCBarSize, Name: fmt.Sprintf("sc-unit%d", i)}

	if err := mp.space.AddRegion(fmt.Sprintf("private%d", i), privBase, privateSize/4); err != nil {
		return err
	}
	sharedName := fmt.Sprintf("shared%d", i)
	if err := mp.space.AddRegion(sharedName, shBase, sharedSize/4); err != nil {
		return err
	}
	shared := pcie.Region{Base: shBase, Size: sharedSize / 4, Name: sharedName}
	for _, r := range []pcie.Region{{Base: privBase, Size: privateSize / 4, Name: "ram"}, shared} {
		if err := mp.Host.Claim(HostBridgeID, r); err != nil {
			return err
		}
	}
	// Unit SC may master only its tenant's shared window.
	mp.IOMMU.Map(scUnitID, shared.Base, shared.Size, mem.PermRead|mem.PermWrite)

	guest := &tvm.Guest{ID: tvmID, Space: mp.space}
	device := xpu.NewDevice(profile, xpuID, xpuWin.Base, 1<<20)

	internal := pcie.NewBus(fmt.Sprintf("internal%d", i))
	internal.Attach(device)
	if err := internal.Claim(xpuID, device.BAR0()); err != nil {
		return err
	}

	scKeys := secmem.NewKeyStore()
	sc := core.NewController(scUnitID, scBar, scKeys)
	sc.AttachInternalBusOnly(internal, xpuID, xpuWin, mp.Host)
	// Batched completion reaping, identical to the single-tenant
	// assembly: after forwarding a guarded doorbell the SC reads the
	// device head once and DMA-writes it into the submission ring
	// header, so every tenant's completion poll is a host-memory read.
	sc.ConfigureCompletionReap(xpu.RegDoorbell, xpu.RegCmdHead)
	internal.Attach(sc.InternalPort())
	for _, r := range []pcie.Region{shared, {Base: msiBase, Size: msiSize, Name: "msi"}} {
		if err := internal.Claim(scUnitID, r); err != nil {
			return err
		}
	}
	device.SetUpstream(func(p *pcie.Packet) *pcie.Packet { return internal.Route(p) })
	// Payload recycling on the tenant's internal segment, identical to
	// the single-tenant assembly: every gate re-checks Bus.Untapped per
	// packet, so a tap installed mid-run falls back to allocation.
	device.SetPayloadRecycling(internal.Untapped, internal.Untapped)
	sc.EnableDatapathRecycling()
	sc.SetTeardownHook(func() {
		plan := sc.Guard().CleanPlan(profile.SupportsSoftReset, xpu.RegReset, xpu.ResetEnv, xpu.ResetCold)
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, plan.Val)
		internal.Route(pcie.NewMemWrite(scUnitID, xpuWin.Base+plan.Reg, buf))
	})

	// Boot rules scoped to this tenant's identifiers and windows only.
	f := sc.Filter()
	for _, r := range core.L1Screen(1, tvmID) {
		f.InstallL1(r)
	}
	for _, r := range core.L1Screen(10, xpuID) {
		f.InstallL1(r)
	}
	f.InstallL2(core.Rule{ID: 20, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind: pcie.MWr, Requester: tvmID, AddrLo: xpuWin.Base, AddrHi: xpuWin.End(), Action: core.ActionWriteProtect})
	f.InstallL2(core.Rule{ID: 21, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: xpuWin.Base, AddrHi: xpuWin.End(), Action: core.ActionPassThrough})
	for _, k := range []pcie.Kind{pcie.MRd, pcie.MWr} {
		f.InstallL2(core.Rule{ID: 22, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
			Kind: k, Requester: xpuID, AddrLo: shared.Base, AddrHi: shared.End(), Action: core.ActionWriteReadProtect})
	}
	f.InstallL2(core.Rule{ID: 24, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind: pcie.MWr, Requester: xpuID, AddrLo: msiBase, AddrHi: msiBase + msiSize, Action: core.ActionPassThrough})

	if err := mp.Mux.AddUnit(&core.MuxUnit{Ctrl: sc, Bar: scBar, Window: xpuWin, XPU: xpuID, TVM: tvmID}); err != nil {
		return err
	}
	for _, r := range []pcie.Region{scBar, xpuWin} {
		if err := mp.Host.Claim(SCID, r); err != nil {
			return err
		}
	}

	t := &Tenant{
		Index: i, TVMID: tvmID, XPUID: xpuID,
		Guest: guest, Device: device, SC: sc,
		internal: internal, shared: shared,
		tvmKeys: secmem.NewKeyStore(),
		parent:  mp,
	}
	t.Adaptor = adaptor.NewScoped(tvmID, mp.Host, mp.space, t.tvmKeys, scBar.Base, xpuWin.Base, sharedName, adaptor.Optimized())
	mp.Tenants = append(mp.Tenants, t)
	return nil
}

// EstablishTrust provisions one tenant's session keys on its SC unit
// and Adaptor, then brings up the protected driver.
func (t *Tenant) EstablishTrust() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, stream := range []string{core.StreamH2D, core.StreamD2H, core.StreamConfig, core.StreamMMIO} {
		key, nonce := secmem.FreshKey(), secmem.FreshNonce()
		if err := t.SC.Keys().Install(stream, key, nonce); err != nil {
			return err
		}
		if err := t.tvmKeys.Install(stream, key, nonce); err != nil {
			return err
		}
		if stream != core.StreamMMIO {
			if err := t.SC.Params().Activate(stream); err != nil {
				return err
			}
		}
	}
	if err := t.Adaptor.HWInit(); err != nil {
		return err
	}
	const ringEntries = 64
	ring, err := t.Adaptor.StageVerified(fmt.Sprintf("cmdring%d", t.Index), ringEntries*xpu.CmdSize, xpu.CmdSize)
	if err != nil {
		return err
	}
	t.ring = ring
	port := &guardedPort{a: t.Adaptor}
	t.Driver, err = tvm.NewDriver(port, t.Guest.Space, ring.Buf, ringEntries)
	if err != nil {
		return err
	}
	t.Driver.SetPreDoorbell(func(chunks []uint32) error {
		return t.Adaptor.SyncVerified(t.ring, chunks)
	})
	if t.parent != nil && t.parent.Obs != nil {
		t.Driver.SetObserver(t.parent.Obs)
	}
	if err := t.Driver.ConfigureMSI(msiBase, 0x41); err != nil {
		return err
	}
	t.trusted = true
	t.gen++
	if t.parent != nil {
		kind := obsv.EvAttest
		if t.gen > 1 {
			// Keys are never reused across a teardown: a re-trust is a
			// fresh generation, and the audit log records it as such.
			kind = obsv.EvRetrust
		}
		t.parent.Obs.Eventf(kind, tenantLabel(t.Index), "gen=%d", t.gen)
	}
	return nil
}

// RunTask executes a confidential task on the tenant's xPU; semantics
// match Platform.RunTask. Safe to call concurrently with other
// tenants' RunTask; calls on the same tenant serialize.
func (t *Tenant) RunTask(task Task) ([]byte, error) {
	return t.RunTaskCtx(context.Background(), task)
}

// RunTaskCtx is RunTask with end-to-end cancellation. The context is
// honored at the pipeline's safe points — before staging and before
// the doorbell — so an early cancellation costs nothing on the device.
// Once the submission is rung the run is drained to completion and
// only then is the cancellation reported (result discarded): aborting
// a command mid-ring would leave IV counters and tag state
// mid-protocol, which no cancellation is worth. Cancellation errors
// satisfy errors.Is on context.Canceled / ErrDeadlineExceeded.
func (t *Tenant) RunTaskCtx(ctx context.Context, task Task) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if !t.trusted {
		return nil, fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrNotTrusted)
	}
	if len(task.Input) == 0 {
		return nil, fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrEmptyInput)
	}
	outLen := int64(len(task.Input))
	if task.Kernel == KernelChecksum && outLen < 8 {
		outLen = 8
	}
	in, err := t.Adaptor.StageH2D("task-input", task.Input)
	if err != nil {
		return nil, err
	}
	defer t.Adaptor.ReleaseRegion(in)
	out, err := t.Adaptor.PrepareD2H("task-output", outLen)
	if err != nil {
		return nil, err
	}
	defer t.Adaptor.ReleaseRegion(out)
	// Last safe point: staging consumed IV counters (monotonically — a
	// released region is never re-sealed under the same IVs), but the
	// device has seen nothing, so abandoning here is free.
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}

	const devIn, devOut = 0x0, 0x40000
	cmds := []xpu.Command{
		{Op: xpu.OpCopyH2D, Src: in.Buf.Base(), Dst: devIn, Len: uint64(len(task.Input))},
		{Op: xpu.OpKernel, Param: uint32(task.Kernel)<<16 | uint32(task.Param), Src: devIn, Dst: devOut, Len: uint64(outLen)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: out.Buf.Base(), Len: uint64(outLen)},
	}
	before := t.Driver.Tail()
	if err := t.Driver.Submit(cmds...); err != nil {
		return nil, err
	}
	want := before + uint64(len(cmds))
	head, err := t.Driver.Head()
	if err != nil || head != want {
		if rerr := t.recoverSubmission(in, before, want); rerr != nil {
			return nil, rerr
		}
	}
	res, err := t.Adaptor.CollectD2H(out, outLen)
	if err != nil {
		return nil, err
	}
	// Cancellation that landed mid-run: the pipeline drained cleanly
	// (collect included, so stream state is fully advanced); only the
	// result is withheld.
	if cerr := ctx.Err(); cerr != nil {
		return nil, ctxErr(cerr)
	}
	return res, nil
}

// recoverSubmission is the tenant-side port of the Protected-mode
// recovery ladder (see Platform.recoverSubmission): re-align the A3
// MMIO sequence, repost the input region's tag table, kick the driver.
// Without it a single dropped doorbell or lost guarded write would
// desynchronise the tenant's ring head from its tail permanently,
// failing every subsequent task on the tenant — the fail-closed
// teardown exists for exhausted recovery, not for one absorbed fault.
func (t *Tenant) recoverSubmission(in *adaptor.Region, before, want uint64) error {
	for attempt := 0; attempt < submitRecoveryAttempts; attempt++ {
		if err := t.Adaptor.ResyncMMIO(); err != nil {
			break
		}
		if in != nil {
			t.Adaptor.RepostTags(in)
		}
		if err := t.Driver.Kick(); err != nil {
			continue
		}
		head, err := t.Driver.Head()
		if err == nil && head == want {
			return nil
		}
	}
	st, _ := t.Driver.Status()
	head, _ := t.Driver.Head()
	reason := fmt.Sprintf("submission stalled: device consumed %d/%d commands (status %#x)", head-before, want-before, st)
	t.Adaptor.FailClosed(reason)
	t.trusted = false
	return fmt.Errorf("ccai: tenant %d: %s; session torn down", t.Index, reason)
}

// Close tears down one tenant's session.
func (t *Tenant) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trusted {
		t.Adaptor.Teardown()
		t.trusted = false
	}
}

// Close tears down every tenant and stops the telemetry server.
func (mp *MultiPlatform) Close() {
	mp.llmMu.Lock()
	if mp.llmSrv != nil {
		mp.llmSrv.shutdown()
		mp.llmSrv = nil
	}
	mp.llmMu.Unlock()
	for _, t := range mp.Tenants {
		t.Close()
	}
	if mp.Tel != nil {
		mp.Tel.Close()
		mp.Tel = nil
	}
}
