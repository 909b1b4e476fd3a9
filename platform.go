// Package ccai is the public API of the ccAI reproduction: a compatible
// and confidential system for xPU-based AI computing (MICRO '25). It
// assembles the simulated platform — a Trusted VM with an unmodified
// native driver, a host PCIe bus, the PCIe Security Controller
// (PCIe-SC), an internal bus, and one of five xPU device models — and
// exposes secure task execution, trust establishment, and the
// experiment harness that regenerates the paper's tables and figures.
//
// Quickstart:
//
//	plat, _ := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
//	defer plat.Close()
//	out, _ := plat.RunTask(ccai.Task{Input: data, Kernel: ccai.KernelXOR, Param: 0x5a})
//
// For multi-tenant serving with admission control, backpressure and
// cancellation, see MultiPlatform.NewScheduler.
package ccai

import (
	"encoding/binary"
	"sync"

	"ccai/internal/adaptor"
	"ccai/internal/arena"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/telemetry"
	"ccai/internal/xpu"
)

// Mode selects whether the platform runs vanilla (xPU directly on the
// host bus) or protected (PCIe-SC interposed).
type Mode int

const (
	// Vanilla is the unprotected baseline every figure compares
	// against.
	Vanilla Mode = iota
	// Protected interposes the PCIe-SC and routes staging through the
	// Adaptor.
	Protected
)

func (m Mode) String() string {
	if m == Vanilla {
		return "vanilla"
	}
	return "ccAI"
}

// Fixed platform address map: tenant 0's windows. Tenant i's private,
// shared, xPU and SC windows sit i*tenantStride above these bases.
const (
	privateBase = 0x1000_0000
	sharedBase  = 0x8000_0000
	msiBase     = 0xfee0_0000
	msiSize     = 0x10_0000
	xpuBARBase  = 0xd000_0000
	scBARBase   = 0xd010_0000
)

// Bus/device identities; TVMID, SCID and XPUID are tenant 0's (the
// only tenant of a Platform).
var (
	// HostBridgeID is the root complex / memory controller.
	HostBridgeID = pcie.MakeID(0, 0, 0)
	// TVMID is the trusted VM's requester identity.
	TVMID = pcie.MakeID(0, 1, 0)
	// SCID is the PCIe Security Controller.
	SCID = pcie.MakeID(1, 0, 0)
	// XPUID is the accelerator.
	XPUID = pcie.MakeID(2, 0, 0)
)

// Config parameterizes platform construction.
type Config struct {
	// XPU selects the device model; zero value defaults to A100.
	XPU xpu.Profile
	// Mode selects vanilla or protected operation.
	Mode Mode
	// Adaptor selects the §5 optimization set (Protected mode only);
	// zero value means fully Optimized.
	Adaptor *adaptor.Options
	// GoldenFirmware is the firmware measurement the PCIe-SC attests
	// the xPU against (§6's software-based attestation). Empty means
	// the profile's shipped firmware — i.e. a genuine device. Tests
	// set it to a different value to model a flashed/compromised xPU.
	GoldenFirmware string
	// Observe enables the observability layer: a metrics registry and a
	// span tracer wired through every pipeline stage (filter, crypto,
	// adaptor, driver, device). Off (the default) every instrumentation
	// site sees nil handles and costs nothing.
	Observe bool
	// Telemetry attaches the live telemetry plane (HTTP scrape
	// endpoints, tamper-evident audit log, rolling SLO monitors) on
	// top of the observability layer; non-nil implies Observe.
	Telemetry *telemetry.Options
	// LLM configures the continuous-batching inference engine behind
	// Tenant.OpenSession (WithLLMEngine / WithKVBudget); zero fields
	// keep engine defaults.
	LLM llm.EngineConfig
}

// HostBridge terminates device-initiated traffic on the host bus: DMA
// into guest memory (IOMMU-checked) and MSI interrupt writes. MSI
// delivery is shared across every tenant of a MultiPlatform, so the
// interrupt log is mutex-guarded.
type HostBridge struct {
	id    pcie.ID
	space *mem.Space
	iommu *mem.IOMMU

	// bus is the segment the bridge terminates; when it has never been
	// tapped, MRd completion payloads are carved from the shared arena
	// (the terminal consumer returns them after copying) instead of
	// freshly allocated per read.
	bus *pcie.Bus

	msiMu sync.Mutex
	msi   []uint32
}

// DeviceID implements pcie.Endpoint.
func (h *HostBridge) DeviceID() pcie.ID { return h.id }

// Handle implements pcie.Endpoint.
func (h *HostBridge) Handle(p *pcie.Packet) *pcie.Packet {
	if p.Address >= msiBase && p.Address < msiBase+msiSize {
		if p.Kind == pcie.MWr && len(p.Payload) >= 4 {
			h.msiMu.Lock()
			h.msi = append(h.msi, binary.LittleEndian.Uint32(p.Payload))
			h.msiMu.Unlock()
		}
		return nil
	}
	switch p.Kind {
	case pcie.MRd:
		if !h.iommu.Check(p.Requester, p.Address, int64(p.Length), false) {
			return pcie.NewCompletion(p, h.id, pcie.CplCA, nil)
		}
		if h.bus != nil && h.bus.Untapped() {
			// Pooled fast path: no tap has ever seen this bus, so the
			// requester is provably the payload's last holder and will
			// return it to the arena after copying (device dmaReadInto,
			// SC span fetch). A requester that doesn't participate just
			// leaks the buffer to the GC — today's behavior.
			data := arena.Get(int(p.Length))
			if err := h.space.ReadInto(p.Address, data); err != nil {
				arena.Put(data)
				return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
			}
			return pcie.NewCompletionOwned(p, h.id, pcie.CplSuccess, data)
		}
		data, err := h.space.Read(p.Address, int64(p.Length))
		if err != nil {
			return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
		}
		// space.Read returned a fresh copy; transfer it instead of
		// copying a second time.
		return pcie.NewCompletionOwned(p, h.id, pcie.CplSuccess, data)
	case pcie.MWr:
		if !h.iommu.Check(p.Requester, p.Address, int64(len(p.Payload)), true) {
			return nil // posted write silently dropped, fault recorded
		}
		_ = h.space.Write(p.Address, p.Payload)
		return nil
	}
	return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
}

// Interrupts reports MSI payloads received so far.
func (h *HostBridge) Interrupts() []uint32 {
	h.msiMu.Lock()
	defer h.msiMu.Unlock()
	return append([]uint32(nil), h.msi...)
}

// Platform is a single-tenant machine: the N = 1 case of the §9
// chassis. It is a thin view over a one-tenant MultiPlatform, so the
// single-tenant and multi-tenant machines share one assembly, one
// trust establishment and one task datapath. Chassis fields (Host,
// Bridge, IOMMU, Obs, Tel, ...) promote from the MultiPlatform, the
// slice's (Guest, Device, SC, Adaptor, Driver, Internal, ...) from its
// only Tenant.
type Platform struct {
	*MultiPlatform
	*Tenant
}

// NewPlatform assembles and boots a platform.
//
// Deprecated: prefer New with functional options (WithXPU, WithMode,
// WithObserve, ...), which reads better and leaves Config extensible.
// NewPlatform remains fully supported for struct-literal callers.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.XPU.Name == "" {
		cfg.XPU = xpu.A100
	}
	mp, err := newChassis([]xpu.Profile{cfg.XPU}, cfg.Mode, cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{MultiPlatform: mp, Tenant: mp.Tenants[0]}, nil
}

// Close tears the session down: keys destroyed, device cleaned, the
// telemetry server (if any) stopped.
func (p *Platform) Close() { p.MultiPlatform.Close() }
