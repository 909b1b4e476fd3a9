package ccai

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/hrot"
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
// filters. A Platform is the one-tenant case of the same chassis.
type MultiPlatform struct {
	Host    *pcie.Bus
	Bridge  *HostBridge
	IOMMU   *mem.IOMMU
	Mux     *core.Mux
	Tenants []*Tenant
	space   *mem.Space

	// Obs is the chassis-wide observability hub (nil unless WithObserve
	// or WithTelemetry): one registry and tracer shared by every
	// tenant's pipeline and by any Scheduler serving the chassis.
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

// Observability returns the chassis hub, nil when observability is
// off. All obsv types no-op on nil, so callers may chain freely:
// mp.Observability().T().Spans() is safe either way.
func (mp *MultiPlatform) Observability() *obsv.Hub { return mp.Obs }

// MetricsSnapshot returns a point-in-time copy of every metric. The
// zero Snapshot is returned when observability is off.
func (mp *MultiPlatform) MetricsSnapshot() obsv.Snapshot { return mp.Obs.Reg().Snapshot() }

// WriteTimeline exports every recorded span as Chrome trace-event
// JSON (load in chrome://tracing or Perfetto). ErrObserveOff is
// returned when observability is off.
func (mp *MultiPlatform) WriteTimeline(w io.Writer) error {
	if mp.Obs == nil {
		return ErrObserveOff
	}
	return mp.Obs.Tracer.WriteChromeTrace(w)
}

// Tenant is one (TVM, xPU) slice of a MultiPlatform. A protected
// tenant's xPU sits behind its own SC unit of the chassis mux; a
// vanilla tenant has no SC: its device sits on the host bus and its
// driver writes the device's registers directly. A tenant's own
// pipeline is single-threaded: mu serializes EstablishTrust, RunTask,
// and Close. Distinct tenants run fully concurrently — the layers they
// share (host bus, bridge, mux, IOMMU, address space) are individually
// thread-safe.
type Tenant struct {
	mu     sync.Mutex
	Index  int
	Mode   Mode
	TVMID  pcie.ID
	XPUID  pcie.ID
	Guest  *tvm.Guest
	Device *xpu.Device
	// SC, Adaptor and Internal are nil on a vanilla tenant.
	SC      *core.Controller
	Adaptor *adaptor.Adaptor
	Driver  *tvm.Driver
	// Internal is the trusted bus segment between the tenant's SC unit
	// and its xPU.
	Internal *pcie.Bus
	// Blade is the HRoT-Blade populated by SecureBoot (nil until then).
	Blade *hrot.Blade

	shared    string // guest region name of the shared (DMA-able) window
	ring      *adaptor.Region
	tvmKeys   *secmem.KeyStore
	bootRules []core.Rule // static policy measured at secure boot
	golden    string      // attestation firmware; "" = the profile's
	trusted   bool
	gen       int // trust generation: 1 = first attest, 2+ = re-trust
	parent    *MultiPlatform
}

// Per-tenant address strides: tenant i's windows are offset by
// i*tenantStride from the base map, and each RAM window is one stride
// long.
const tenantStride = 0x0100_0000

// ringEntries sizes every tenant's command ring.
const ringEntries = 64

// NewMultiPlatform assembles one chassis serving len(profiles) protected
// tenants, tenant i owning an instance of profiles[i]. WithObserve
// enables the chassis hub, WithTelemetry additionally attaches the live
// telemetry plane with one bearer token per tenant, WithAdaptor and
// WithGoldenFirmware apply to every tenant, WithLLMEngine/WithKVBudget
// configure the inference engine. WithXPU and WithMode do not apply
// (profiles pick the devices, every tenant is protected) and are
// ignored.
func NewMultiPlatform(profiles []xpu.Profile, options ...Option) (*MultiPlatform, error) {
	if len(profiles) == 0 || len(profiles) > 8 {
		return nil, fmt.Errorf("ccai: 1-8 tenants supported, got %d", len(profiles))
	}
	var cfg Config
	for _, opt := range options {
		opt(&cfg)
	}
	return newChassis(profiles, Protected, cfg)
}

// newChassis is the one machine assembly: the shared host side (bus,
// bridge, IOMMU, address space, and the SC mux when protected), then
// one addTenant per profile.
func newChassis(profiles []xpu.Profile, mode Mode, cfg Config) (*MultiPlatform, error) {
	mp := &MultiPlatform{
		Host:   pcie.NewBus("host"),
		IOMMU:  mem.NewIOMMU(),
		space:  mem.NewSpace(),
		Mux:    core.NewMux(SCID),
		llmCfg: cfg.LLM,
	}
	if cfg.Observe || cfg.Telemetry != nil {
		mp.Obs = obsv.NewHub()
	}
	mp.Bridge = &HostBridge{id: HostBridgeID, space: mp.space, iommu: mp.IOMMU, bus: mp.Host}
	mp.Host.Attach(mp.Bridge)
	if mode == Protected {
		mp.Host.Attach(mp.Mux)
	}
	if err := mp.Host.Claim(HostBridgeID, pcie.Region{Base: msiBase, Size: msiSize, Name: "msi"}); err != nil {
		return nil, err
	}
	for i, profile := range profiles {
		if err := mp.addTenant(i, profile, mode, cfg); err != nil {
			return nil, fmt.Errorf("ccai: tenant %d: %w", i, err)
		}
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

// regionName is tenant i's name for a guest RAM window. Tenant 0 keeps
// the single-tenant names (tvm.PrivateRegion, tvm.SharedRegion), so
// code written against a one-tenant machine addresses its windows
// unchanged.
func regionName(base string, i int) string {
	if i == 0 {
		return base
	}
	return base + strconv.Itoa(i)
}

// addTenant assembles tenant i: its RAM windows, device, and — when
// protected — its SC unit, internal bus, boot policy and Adaptor, or —
// when vanilla — the device on the host bus under a direct driver.
func (mp *MultiPlatform) addTenant(i int, profile xpu.Profile, mode Mode, cfg Config) error {
	stride := uint64(i) * tenantStride
	tvmID := pcie.MakeID(0, uint8(1+i), 0)
	xpuID := pcie.MakeID(uint8(2+i), 0, 0)
	private := pcie.Region{Base: privateBase + stride, Size: tenantStride, Name: regionName(tvm.PrivateRegion, i)}
	shared := pcie.Region{Base: sharedBase + stride, Size: tenantStride, Name: regionName(tvm.SharedRegion, i)}
	xpuWin := pcie.Region{Base: xpuBARBase + stride, Size: xpu.BAR0Size, Name: fmt.Sprintf("xpu%d-window", i)}
	for _, r := range []pcie.Region{private, shared} {
		if err := mp.space.AddRegion(r.Name, r.Base, r.Size); err != nil {
			return err
		}
		if err := mp.Host.Claim(HostBridgeID, r); err != nil {
			return err
		}
	}

	t := &Tenant{
		Index: i, Mode: mode, TVMID: tvmID, XPUID: xpuID,
		Guest:  &tvm.Guest{ID: tvmID, Space: mp.space},
		Device: xpu.NewDevice(profile, xpuID, xpuWin.Base, 1<<20),
		shared: shared.Name,
		golden: cfg.GoldenFirmware,
		parent: mp,
	}
	if mp.Obs != nil {
		t.Device.SetObserver(mp.Obs)
	}
	mp.Tenants = append(mp.Tenants, t)

	if mode == Vanilla {
		// No SC: the device sits on the host bus and masters the
		// tenant's shared window itself, as a conventional driver maps
		// it. Completion payloads come from the host bridge's arena
		// pool while the bus stays untapped; the device returns them
		// after copying. MWr staging keeps the slab — the bridge copies
		// posted writes but does not recycle them.
		mp.Host.Attach(t.Device)
		if err := mp.Host.Claim(xpuID, t.Device.BAR0()); err != nil {
			return err
		}
		t.Device.SetUpstream(mp.Host.Route)
		t.Device.SetPayloadRecycling(mp.Host.Untapped, nil)
		mp.IOMMU.Map(xpuID, shared.Base, shared.Size, mem.PermRead|mem.PermWrite)
		ring, err := mp.space.Alloc(shared.Name, "cmdring", ringEntries*xpu.CmdSize)
		if err != nil {
			return err
		}
		return t.startDriver(&tvm.DirectPort{ID: tvmID, Bus: mp.Host, BAR0: xpuWin.Base}, ring)
	}

	scUnitID := pcie.MakeID(1, 0, uint8(i)) // virtual function per slice
	scBar := pcie.Region{Base: scBARBase + stride, Size: core.SCBarSize, Name: fmt.Sprintf("sc-unit%d", i)}
	t.Internal = pcie.NewBus("internal" + strconv.Itoa(i))
	t.Internal.Attach(t.Device)
	if err := t.Internal.Claim(xpuID, t.Device.BAR0()); err != nil {
		return err
	}
	t.SC = core.NewController(scUnitID, scBar, secmem.NewKeyStore())
	t.SC.AttachInternalBusOnly(t.Internal, xpuID, xpuWin, mp.Host)
	// Batched completion reaping: after forwarding a guarded doorbell the
	// SC reads the device's command head once and DMA-writes it into the
	// submission ring header, so the driver's completion poll becomes a
	// host-memory read.
	t.SC.ConfigureCompletionReap(xpu.RegDoorbell, xpu.RegCmdHead)
	// The SC's internal port claims every host window of the tenant on
	// the internal bus, so all device-initiated traffic (DMA, MSI)
	// routes through the filter — and is observable on the internal
	// segment like real wire traffic.
	t.Internal.Attach(t.SC.InternalPort())
	for _, r := range []pcie.Region{private, shared, {Base: msiBase, Size: msiSize, Name: "msi"}} {
		if err := t.Internal.Claim(scUnitID, r); err != nil {
			return err
		}
	}
	t.Device.SetUpstream(t.Internal.Route)
	// Close the payload-recycling loops on the internal segment: the
	// device returns the SC's H2D plaintext completions to the arena
	// after copying, stages D2H MWr payloads from the arena for the SC's
	// write-span pipeline to return after sealing, and the SC recycles
	// its own bounce-buffer fetches and ciphertext staging likewise. All
	// gates re-check Bus.Untapped per packet, so fault-injection taps
	// installed mid-run degrade to allocate-and-forget.
	t.Device.SetPayloadRecycling(t.Internal.Untapped, t.Internal.Untapped)
	t.SC.EnableDatapathRecycling()
	t.SC.SetTeardownHook(func() {
		// Environment guard: clean the device on session teardown.
		plan := t.SC.Guard().CleanPlan(profile.SupportsSoftReset, xpu.RegReset, xpu.ResetEnv, xpu.ResetCold)
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, plan.Val)
		t.Internal.Route(pcie.NewMemWrite(scUnitID, xpuWin.Base+plan.Reg, buf))
	})
	// The SC unit (not the device) masters the host bus; only the
	// tenant's shared bounce window is mapped for it. The TVM-private
	// region stays unmapped for every device — the paper's IOMMU
	// assumption.
	mp.IOMMU.Map(scUnitID, shared.Base, shared.Size, mem.PermRead|mem.PermWrite)

	// The static policy measured at secure boot: the L1 screen for the
	// TVM and the xPU, and the L2 classification of Figure 5 scoped to
	// this tenant's identifiers and windows.
	match := core.MatchKind | core.MatchRequester | core.MatchAddr
	l1 := append(core.L1Screen(1, tvmID), core.L1Screen(10, xpuID)...)
	l2 := []core.Rule{
		// TVM control writes to the xPU window: Write Protected (A3).
		{ID: 20, Mask: match, Kind: pcie.MWr, Requester: tvmID,
			AddrLo: xpuWin.Base, AddrHi: xpuWin.End(), Action: core.ActionWriteProtect},
		// TVM reads of xPU status: Full Accessible (A4).
		{ID: 21, Mask: match, Kind: pcie.MRd, Requester: tvmID,
			AddrLo: xpuWin.Base, AddrHi: xpuWin.End(), Action: core.ActionPassThrough},
		// xPU DMA into the shared window: protected (the descriptor
		// decides A2 vs A3 per region).
		{ID: 22, Mask: match, Kind: pcie.MRd, Requester: xpuID,
			AddrLo: shared.Base, AddrHi: shared.End(), Action: core.ActionWriteReadProtect},
		{ID: 23, Mask: match, Kind: pcie.MWr, Requester: xpuID,
			AddrLo: shared.Base, AddrHi: shared.End(), Action: core.ActionWriteReadProtect},
		// xPU interrupts: Full Accessible (A4).
		{ID: 24, Mask: match, Kind: pcie.MWr, Requester: xpuID,
			AddrLo: msiBase, AddrHi: msiBase + msiSize, Action: core.ActionPassThrough},
	}
	for _, r := range l1 {
		t.SC.Filter().InstallL1(r)
	}
	for _, r := range l2 {
		t.SC.Filter().InstallL2(r)
	}
	t.bootRules = append(l1, l2...)

	if err := mp.Mux.AddUnit(&core.MuxUnit{Ctrl: t.SC, Bar: scBar, Window: xpuWin, XPU: xpuID, TVM: tvmID}); err != nil {
		return err
	}
	for _, r := range []pcie.Region{scBar, xpuWin} {
		if err := mp.Host.Claim(SCID, r); err != nil {
			return err
		}
	}
	opts := adaptor.Optimized()
	if cfg.Adaptor != nil {
		opts = *cfg.Adaptor
	}
	t.tvmKeys = secmem.NewKeyStore()
	t.Adaptor = adaptor.NewScoped(tvmID, mp.Host, mp.space, t.tvmKeys, scBar.Base, xpuWin.Base, shared.Name, opts)
	if mp.Obs != nil {
		t.SC.SetObserver(mp.Obs)
		t.Adaptor.SetObserver(mp.Obs)
	}
	return nil
}

// EstablishTrust provisions the tenant's session keys on its SC unit
// and Adaptor, then brings up the guarded driver; a no-op on a vanilla
// tenant. In deployment the key material comes out of the Figure 6
// remote attestation + key exchange (see internal/attest and the
// attestation example); here the same installation step runs with
// locally generated keys. Before provisioning anything the SC
// software-attests the xPU firmware (§6): a device answering the
// challenge wrongly never receives keys.
func (t *Tenant) EstablishTrust() error {
	if t.Mode != Protected {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	obs := t.parent.Obs
	sp := obs.T().Begin(obsv.TrackTask, "establish_trust",
		obsv.Str("tenant", tenantLabel(t.Index)), obsv.Str("xpu", t.Device.Profile().Name))
	defer sp.End()
	var nonceBuf [8]byte
	if _, err := rand.Read(nonceBuf[:]); err != nil {
		return err
	}
	nonce := binary.LittleEndian.Uint64(nonceBuf[:])
	golden := t.golden
	if golden == "" {
		golden = t.Device.Profile().FirmwareVersion
	}
	if !t.SC.AttestDevice(nonce, xpu.AttestDigest(golden, nonce), xpu.RegAttestNonce, xpu.RegAttestResp) {
		return fmt.Errorf("%w; refusing to provision keys", ErrAttestFailed)
	}
	for _, stream := range []string{core.StreamH2D, core.StreamD2H, core.StreamConfig, core.StreamMMIO} {
		key, nonce := secmem.FreshKey(), secmem.FreshNonce()
		if err := t.SC.Keys().Install(stream, key, nonce); err != nil {
			return err
		}
		if err := t.tvmKeys.Install(stream, key, nonce); err != nil {
			return err
		}
		if stream != core.StreamMMIO { // MMIO uses raw MAC keys, not a stream
			if err := t.SC.Params().Activate(stream); err != nil {
				return err
			}
		}
	}
	if err := t.Adaptor.HWInit(); err != nil {
		return err
	}
	ring, err := t.Adaptor.StageVerified("cmdring", ringEntries*xpu.CmdSize, xpu.CmdSize)
	if err != nil {
		return err
	}
	t.ring = ring
	if err := t.startDriver(&guardedPort{a: t.Adaptor}, ring.Buf); err != nil {
		return err
	}
	t.Driver.SetPreDoorbell(func(chunks []uint32) error {
		return t.Adaptor.SyncVerified(t.ring, chunks)
	})
	t.trusted = true
	t.gen++
	kind := obsv.EvAttest
	if t.gen > 1 {
		// Keys are never reused across a teardown: a re-trust is a
		// fresh generation, and the audit log records it as such.
		kind = obsv.EvRetrust
	}
	obs.Eventf(kind, tenantLabel(t.Index), "xpu=%s gen=%d", t.Device.Profile().Name, t.gen)
	return nil
}

// startDriver brings up the native driver over port on ring.
func (t *Tenant) startDriver(port tvm.Port, ring *mem.Buffer) error {
	d, err := tvm.NewDriver(port, t.Guest.Space, ring, ringEntries)
	if err != nil {
		return err
	}
	if t.parent.Obs != nil {
		d.SetObserver(t.parent.Obs)
	}
	t.Driver = d
	return d.ConfigureMSI(msiBase, 0x41)
}

// guardedPort carries driver MMIO through the Adaptor's A3 protocol.
// Command-head polls route through the reaped completion word so the
// steady-state task loop costs zero MMIO reads.
type guardedPort struct{ a *adaptor.Adaptor }

func (g *guardedPort) WriteReg(reg uint64, v uint64) error { return g.a.GuardedWrite(reg, v) }

func (g *guardedPort) ReadReg(reg uint64) (uint64, error) {
	if reg == xpu.RegCmdHead {
		return g.a.CompletionHead(reg)
	}
	return g.a.DeviceRead(reg)
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
