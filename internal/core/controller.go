package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ccai/internal/arena"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// PCIe-SC control register offsets within its own 4 KB Upstream BAR
// (§7.2: "we allocate a 4KB Upstream Bar space on the PCIe-SC").
const (
	RegSCStatus      = 0x000 // RO: status bits
	RegRuleDoorbell  = 0x010 // WO: decode the sealed rule in the rule window
	RegDescDoorbell  = 0x018 // WO: decode the sealed descriptor in the window
	RegDescRelease   = 0x020 // WO: release descriptor by ID
	RegTeardown      = 0x028 // WO: destroy keys, clean xPU, drop regions
	RegMetaBase      = 0x030 // RW: host address of the DMA-metadata batch buffer
	RegMetaSize      = 0x038 // RW: batch buffer size
	RegNotify        = 0x040 // WO: region-ready notify (the batched I/O write of §5)
	RegRekeyDoorbell = 0x048 // WO: apply the sealed rekey command in the window
	RegMMIOSeq       = 0x050 // RO: next expected A3 MMIO sequence number (recovery resync)
	RegRingBase      = 0x058 // RW: host address of the submission ring (ring.go)
	RegRingSize      = 0x060 // RW: submission ring slot count
	RegRingDoorbell  = 0x068 // WO: publish ring entries up to the written tail index
	RegTagWindow     = 0x080 // WO: tag-record uploads (payload = packed records)
	RegRuleWindow    = 0x100 // WO: sealed rule blob staging (256 B)
	RegDescWindow    = 0x200 // WO: sealed descriptor blob staging (256 B)
	RegRekeyWindow   = 0x300 // WO: sealed rekey command staging (256 B)
	SCBarSize        = 0x1000
)

// Status bits.
const (
	SCStatusReady     = 1 << 0
	SCStatusConfigErr = 1 << 1
)

// Stats aggregates the controller's observable behaviour for the
// security evaluation and the trace tooling.
type Stats struct {
	Filter          FilterStats
	DecryptedChunks uint64
	EncryptedChunks uint64
	VerifiedChunks  uint64
	AuthFailures    uint64
	ConfigRejects   uint64
	GuardBlocks     uint64
	Teardowns       uint64
	// DuplicateReads counts benign retransmits re-served from the
	// verified-chunk record (duplicate-read suppression): the chunk was
	// re-fetched and re-authenticated against its retained tag without
	// advancing the stream counter, so recovery never weakens the
	// replay discipline.
	DuplicateReads uint64
	// PrefetchedChunks counts H2D chunks the SC decrypted ahead of the
	// device's read request (the decrypt/DMA overlap pipeline), and
	// PrefetchHits counts span reads served straight from that cache —
	// reads whose crypto ran concurrently with the previous span's DMA.
	PrefetchedChunks uint64
	PrefetchHits     uint64
	// BatchedD2HSpans counts device write bursts the SC sealed as one
	// engine batch instead of one engine dispatch per chunk.
	BatchedD2HSpans uint64
}

// Controller is the PCIe Security Controller. On the host bus it is an
// endpoint claiming (a) its own control BAR and (b) a shadow window over
// the xPU's BAR0, so all host→device MMIO lands here first. On the
// internal bus it is the upstream port through which all device DMA and
// MSI traffic must pass. Every packet in both directions crosses the
// Packet Filter.
type Controller struct {
	id      pcie.ID
	bar     pcie.Region
	hostBus *pcie.Bus

	internal *pcie.Bus
	xpuID    pcie.ID
	xpuBar   pcie.Region

	filter *Filter
	params *ParamsManager
	tags   *TagManager
	guard  *EnvGuard

	regions regionTable

	// mu guards the controller's own mutable state below (mmioSeq,
	// status, regs, the config staging buffers, d2hChunks, verified,
	// stats). Control panels (filter, params, tags, guard, regions)
	// carry their own leaf locks and may be called while mu is held;
	// mu is NEVER held across a bus Route call — routing can reenter
	// this controller on the same goroutine (doorbell → DMA upstream).
	mu sync.Mutex

	// config is the stream guarding policy/descriptor uploads.
	// mmioSeq tracks the next expected A3 MMIO sequence number.
	mmioSeq uint32

	status    uint64
	regs      map[uint64]uint64
	ruleBuf   []byte
	descBuf   []byte
	rekeyBuf  []byte
	d2hChunks map[uint32]uint64
	tagPend   map[uint32]*tagSpan

	// wspans accumulates in-order device D2H plaintext per region so a
	// burst seals as one engine batch with the span's ciphertext DMA
	// overlapping the next chunks' crypto (pipeline.go).
	wspans map[uint32]*writeSpan
	// wsFree recycles writeSpan shells between flushes (the steady-state
	// D2H loop otherwise allocates one per span). Guarded by mu.
	wsFree []*writeSpan

	// pf is the single-entry H2D decrypt-ahead cache: the plaintext of
	// the span the device is predicted to read next, decrypted while
	// the previous span's completion DMA was in flight (pipeline.go).
	pf spanCache

	// scratchPool holds the reusable span bookkeeping (tag records,
	// sealed views, AADs) for the span paths — two slots, because a
	// demand decrypt still holds its scratch while it kicks the next
	// prefetch. Taken and returned under mu, with a fresh allocation as
	// fallback so deeper nesting is merely slower, never wrong.
	scratchPool [2]*spanScratch

	// verified retains the tag record of every H2D chunk already
	// accepted once, keyed by descriptor ID then chunk index, so a
	// benign retransmit (device re-read after a fault) can be
	// re-verified and re-served without loosening the stream's replay
	// watermark. The per-region nesting makes a descriptor release a
	// single map delete instead of a scan over every retained chunk;
	// within a region the records live in chunk-indexed slices
	// (verifiedSet) because the datapath inserts one per accepted chunk
	// and per-insert map growth dominated the decrypt path's allocation
	// profile.
	verified map[uint32]*verifiedSet

	// recycle arms the datapath's payload-recycling fast paths: bounce
	// fetches, ciphertext staging and retained device write payloads
	// return to the shared arena once their last holder is done with
	// them. Only the platform enables this (EnableDatapathRecycling),
	// because it is sound solely under the platform's wiring contract —
	// every data-plane payload originates from the arena-aware device
	// and host-bridge paths, and every recycling site re-checks
	// Bus.Untapped after routing. Controllers driven directly by tests
	// keep the never-reuse discipline.
	recycle bool

	// ringHead is the submission-ring consumption index (absolute entry
	// count); the matching tail arrives through RegRingDoorbell.
	ringHead uint64

	// Completion reaping (ring.go): after forwarding a guarded write to
	// reapDoorbellReg the SC reads the device head from reapHeadReg and
	// caches it in cplWord (RingCplValid-tagged, guarded by mu) for the
	// ring-header writeback. The register offsets are assembly-time
	// configuration — the platform knows the device layout, the SC does
	// not.
	reapConfigured  bool
	reapDoorbellReg uint64
	reapHeadReg     uint64
	cplWord         uint64

	authorizedTVM pcie.ID
	tvmPinned     bool

	// slab and pkts amortize the SC's per-chunk heap traffic: slab
	// carves never-recycled payload bytes (safe to hand to bus taps),
	// pkts bump-allocates the packet structs themselves.
	slab arena.Slab
	pkts pcie.PacketArena

	stats Stats

	// obs mirrors stats into the metrics registry and records spans.
	// The zero value (all-nil handles) is the uninstrumented state, so
	// increments and Begin/End calls never branch.
	obs controllerObs

	// onTeardown lets the platform hook environment cleaning.
	onTeardown func()
}

// controllerObs holds the controller's cached observability handles.
type controllerObs struct {
	tracer                  *obsv.Tracer
	decrypted, encrypted    *obsv.Counter
	verified, authFail      *obsv.Counter
	cfgRejects, guardBlocks *obsv.Counter
	teardowns, dupReads     *obsv.Counter
}

// SetObserver instruments the controller and its control panels
// (filter, params manager, tag manager); a nil hub clears everything.
func (c *Controller) SetObserver(h *obsv.Hub) {
	c.filter.SetObserver(h)
	c.params.SetObserver(h, obsv.TrackCrypto+"/sc")
	c.tags.SetObserver(h)
	if h == nil {
		c.obs = controllerObs{}
		return
	}
	reg := h.Reg()
	c.obs = controllerObs{
		tracer:      h.T(),
		decrypted:   reg.Counter("sc.decrypted_chunks"),
		encrypted:   reg.Counter("sc.encrypted_chunks"),
		verified:    reg.Counter("sc.verified_chunks"),
		authFail:    reg.Counter("sc.auth_failures"),
		cfgRejects:  reg.Counter("sc.config_rejects"),
		guardBlocks: reg.Counter("sc.guard_blocks"),
		teardowns:   reg.Counter("sc.teardowns"),
		dupReads:    reg.Counter("sc.duplicate_reads"),
	}
}

// EnableDatapathRecycling arms the arena-recycling fast paths (see the
// recycle field). Platform assembly only; call before traffic flows.
func (c *Controller) EnableDatapathRecycling() {
	c.mu.Lock()
	c.recycle = true
	c.mu.Unlock()
}

// verifiedSet densely retains one region's accepted-chunk tag records,
// indexed by chunk ordinal. get/put are nil-safe on the read side so
// lookups compose with the map access without an existence check.
type verifiedSet struct {
	recs []TagRecord
	seen []bool
}

func (v *verifiedSet) get(chunk uint32) (TagRecord, bool) {
	if v == nil || int(chunk) >= len(v.seen) || !v.seen[chunk] {
		return TagRecord{}, false
	}
	return v.recs[chunk], true
}

func (v *verifiedSet) put(chunk uint32, rec TagRecord) {
	if int(chunk) >= len(v.seen) {
		n := 2 * len(v.seen)
		if n < int(chunk)+1 {
			n = int(chunk) + 1
		}
		recs := make([]TagRecord, n)
		seen := make([]bool, n)
		copy(recs, v.recs)
		copy(seen, v.seen)
		v.recs, v.seen = recs, seen
	}
	v.recs[chunk], v.seen[chunk] = rec, true
}

// verifiedFor returns the region's verified set, creating it on first
// use sized for hint chunks (the region's chunk count when the caller
// knows it — one allocation instead of a doubling ladder). Caller
// holds c.mu.
func (c *Controller) verifiedFor(region uint32, hint int) *verifiedSet {
	v := c.verified[region]
	if v == nil {
		v = new(verifiedSet)
		if hint > 0 {
			v.recs = make([]TagRecord, hint)
			v.seen = make([]bool, hint)
		}
		c.verified[region] = v
	}
	return v
}

// chunkCount reports the descriptor's region size in chunks.
func chunkCount(desc Descriptor) int {
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	return int((desc.Len + cs - 1) / cs)
}

// authFailed counts one integrity failure in both stats and metrics.
// It takes c.mu and must not be called with it held.
func (c *Controller) authFailed() {
	c.mu.Lock()
	c.stats.AuthFailures++
	c.mu.Unlock()
	c.obs.authFail.Inc()
}

// tagMatch wraps TagManager.Take in a tag_match span.
func (c *Controller) tagMatch(stream string, chunk uint32) (TagRecord, bool) {
	sp := c.obs.tracer.Begin(obsv.TrackSC, "tag_match",
		obsv.Str("stream", stream), obsv.U64("chunk", uint64(chunk)))
	rec, ok := c.tags.Take(stream, chunk)
	sp.Attr(obsv.Bool("matched", ok))
	sp.End()
	return rec, ok
}

// NewController builds a PCIe-SC with the given identity and control
// BAR placement, guarding the xPU whose BAR0 shadow window is xpuBar.
func NewController(id pcie.ID, bar pcie.Region, keys *secmem.KeyStore) *Controller {
	return &Controller{
		id:        id,
		bar:       bar,
		filter:    NewFilter(),
		params:    NewParamsManager(keys),
		tags:      NewTagManager(),
		guard:     NewEnvGuard(),
		regs:      make(map[uint64]uint64),
		d2hChunks: make(map[uint32]uint64),
		tagPend:   make(map[uint32]*tagSpan),
		wspans:    make(map[uint32]*writeSpan),
		verified:  make(map[uint32]*verifiedSet),
		status:    SCStatusReady,
	}
}

// AttachHostBus registers the controller's host-side presence: its own
// control BAR plus the shadow claim over the xPU window.
func (c *Controller) AttachHostBus(bus *pcie.Bus, xpuWindow pcie.Region) error {
	c.hostBus = bus
	c.xpuBar = xpuWindow
	bus.Attach(c)
	if err := bus.Claim(c.id, c.bar); err != nil {
		return err
	}
	return bus.Claim(c.id, xpuWindow)
}

// AttachInternalBus wires the trusted downstream segment holding the
// xPU.
func (c *Controller) AttachInternalBus(bus *pcie.Bus, xpu pcie.ID) {
	c.internal = bus
	c.xpuID = xpu
}

// AttachInternalBusOnly configures a controller used as a Mux unit:
// it wires the internal bus, the shadow window geometry, and the host
// bus used for mastering — without claiming anything on the host bus
// (the Mux owns the host-side presence).
func (c *Controller) AttachInternalBusOnly(bus *pcie.Bus, xpu pcie.ID, window pcie.Region, host *pcie.Bus) {
	c.internal = bus
	c.xpuID = xpu
	c.xpuBar = window
	c.hostBus = host
}

// Keys exposes the controller's trust-module key store for
// provisioning during trust establishment.
func (c *Controller) Keys() *secmem.KeyStore { return c.params.keys }

// SCStatusBits reports the controller's status register value.
func (c *Controller) SCStatusBits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// DeviceID implements pcie.Endpoint.
func (c *Controller) DeviceID() pcie.ID { return c.id }

// Filter exposes the Packet Filter for rule installation during secure
// boot (static platform rules) and for statistics.
func (c *Controller) Filter() *Filter { return c.filter }

// Params exposes the De/Encryption Parameters Manager for trust
// establishment.
func (c *Controller) Params() *ParamsManager { return c.params }

// Guard exposes the environment guard for platform check installation.
func (c *Controller) Guard() *EnvGuard { return c.guard }

// Tags exposes the Authentication Tag Manager (tests and tooling).
func (c *Controller) Tags() *TagManager { return c.tags }

// Stats snapshots controller counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Filter = c.filter.Stats()
	return s
}

// SetTeardownHook installs a platform callback run after Teardown.
func (c *Controller) SetTeardownHook(fn func()) { c.onTeardown = fn }

// Regions reports live protected regions (tests).
func (c *Controller) Regions() int { return c.regions.count() }

// ConfigureCompletionReap enables batched completion reaping: after
// every guarded write the SC forwards to doorbellReg (BAR0-relative),
// it reads headReg from the device and DMA-writes the value into the
// submission ring header (ring.go). Assembly-time configuration: call
// before traffic flows, never concurrently with it.
func (c *Controller) ConfigureCompletionReap(doorbellReg, headReg uint64) {
	c.reapConfigured = true
	c.reapDoorbellReg = doorbellReg
	c.reapHeadReg = headReg
}

// SetAuthorizedTVM restricts control-BAR access to one requester ID.
// The sealed-blob crypto already stops policy forgery; this check
// additionally denies unauthorized parties the DoS-ish knobs (teardown,
// metadata redirection). Like the bus attachments, it is assembly-time
// configuration: call before traffic flows, never concurrently with it.
func (c *Controller) SetAuthorizedTVM(id pcie.ID) { c.authorizedTVM = id; c.tvmPinned = true }

// --- host-side traffic ------------------------------------------------------

// Handle implements pcie.Endpoint for packets arriving from the host
// bus: control-BAR accesses and shadowed xPU MMIO.
func (c *Controller) Handle(p *pcie.Packet) *pcie.Packet {
	if c.bar.Contains(p.Address) && (p.Kind == pcie.MRd || p.Kind == pcie.MWr) {
		return c.handleControl(p)
	}
	verdict := c.filter.Classify(p)
	switch verdict.Action {
	case ActionDrop:
		return c.reject(p)
	case ActionPassThrough:
		return c.forwardToDevice(p)
	case ActionWriteProtect:
		return c.handleGuardedMMIO(p)
	case ActionWriteReadProtect:
		// Sensitive MMIO (command payloads addressed at ccAI hardware,
		// Figure 5 L2 row 1) must arrive through the control BAR's
		// sealed windows; anything else here is misrouted.
		return c.reject(p)
	}
	return c.reject(p)
}

func (c *Controller) reject(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MRd || p.Kind == pcie.CfgRd || p.Kind == pcie.CfgWr {
		return pcie.NewCompletion(p, c.id, pcie.CplUR, nil)
	}
	return nil
}

func (c *Controller) forwardToDevice(p *pcie.Packet) *pcie.Packet {
	if c.internal == nil {
		return c.reject(p)
	}
	cpl := c.internal.Route(p)
	if staleCpl(p, cpl) {
		// A completion answering a different transaction (delayed,
		// duplicated, or misrouted on the device segment) must never be
		// forwarded across the boundary: the stale payload may be
		// plaintext the SC decrypted for the device.
		c.authFailed()
		return c.reject(p)
	}
	return cpl
}

// staleCpl reports whether cpl answers a transaction other than req:
// a mismatched transaction tag or requester ID marks a stale or
// foreign completion, which the SC fails closed on rather than carry
// across the trust boundary in either direction.
func staleCpl(req, cpl *pcie.Packet) bool {
	if cpl == nil || (cpl.Kind != pcie.Cpl && cpl.Kind != pcie.CplD) {
		return false
	}
	return cpl.Requester != req.Requester || cpl.Tag != req.Tag
}

// handleGuardedMMIO applies action A3 to control traffic: the write's
// MAC record must already sit in the tag queue (the Adaptor posts it
// before issuing the write), and guarded registers must pass the
// environment checks.
func (c *Controller) handleGuardedMMIO(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MRd {
		// Reads of guarded registers carry no payload to verify.
		return c.forwardToDevice(p)
	}
	sp := c.obs.tracer.Begin(obsv.TrackSC, "guarded_mmio",
		obsv.Hex("addr", p.Address), obsv.I64("bytes", int64(len(p.Payload))))
	defer sp.End()
	// The sequence check, MAC verify and counter advance form one
	// atomic step under mu so concurrent guarded writes cannot both
	// claim the same sequence number. The leaf locks taken inside
	// (tags, keystore, guard) never call back into the controller.
	c.mu.Lock()
	seq := c.mmioSeq
	rec, ok := c.tagMatch(StreamMMIO, seq)
	if !ok {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	var hdr [16]byte
	PutMACHeader(&hdr, seq, p.Address, uint32(len(p.Payload)))
	// The 16-byte wire tag is the MAC truncated to TagSize; recompute
	// and compare the truncation (constant-time over the full width).
	// MACSum keeps the key inside the store and reuses its HMAC state;
	// the keystore mutex is a leaf lock, safe under c.mu.
	want, err := c.params.keys.MACSum(StreamMMIO, hdr[:], p.Payload)
	if err != nil {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	match := true
	for i := 0; i < secmem.TagSize; i++ {
		if want[i] != rec.Tag[i] {
			match = false
		}
	}
	if !match {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	c.mmioSeq++
	c.stats.VerifiedChunks++
	c.mu.Unlock()
	c.obs.verified.Inc()

	// Environment verification on guarded registers.
	if len(p.Payload) >= 8 && p.Address >= c.xpuBar.Base {
		reg := p.Address - c.xpuBar.Base
		val := binary.LittleEndian.Uint64(p.Payload[:8])
		if !c.guard.VerifyMMIO(reg, val) {
			c.mu.Lock()
			c.stats.GuardBlocks++
			c.mu.Unlock()
			c.obs.guardBlocks.Inc()
			return c.reject(p)
		}
	}
	cpl := c.forwardToDevice(p)
	if c.reapConfigured && p.Address == c.xpuBar.Base+c.reapDoorbellReg {
		// The doorbell ran the device's command pump synchronously; reap
		// the batch of completions it produced with one device-head read
		// and one ring-header writeback.
		c.reapCompletion()
	}
	return cpl
}

// MACHeader is the byte layout both ends authenticate for A3 MMIO
// writes: sequence number, target address, payload length. The Adaptor
// mirrors this when computing the companion tag record.
func MACHeader(seq uint32, addr uint64, n uint32) []byte {
	buf := make([]byte, 16)
	PutMACHeader((*[16]byte)(buf), seq, addr, n)
	return buf
}

// PutMACHeader writes the A3 MAC header into a caller-provided
// (typically stack) array — the allocation-free variant.
func PutMACHeader(buf *[16]byte, seq uint32, addr uint64, n uint32) {
	binary.LittleEndian.PutUint32(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[4:], addr)
	binary.LittleEndian.PutUint32(buf[12:], n)
}

// MMIOSeq reports the next expected A3 sequence number (the Adaptor
// mirrors this counter).
func (c *Controller) MMIOSeq() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mmioSeq
}

// --- control BAR -------------------------------------------------------------

func (c *Controller) handleControl(p *pcie.Packet) *pcie.Packet {
	if c.tvmPinned && p.Requester != c.authorizedTVM {
		c.configReject(nil)
		return c.reject(p)
	}
	off := p.Address - c.bar.Base
	if p.Kind == pcie.MRd {
		buf := c.slab.Take(int(p.Length))
		var tmp [8]byte
		c.mu.Lock()
		v := c.regs[off&^7]
		switch off &^ 7 {
		case RegSCStatus:
			v = c.status
		case RegMMIOSeq:
			v = uint64(c.mmioSeq)
		}
		c.mu.Unlock()
		binary.LittleEndian.PutUint64(tmp[:], v)
		copy(buf, tmp[:])
		return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, buf)
	}
	// Writes.
	switch {
	case off >= RegRuleWindow && off < RegRuleWindow+256:
		c.stageConfig(&c.ruleBuf, p.Payload)
	case off >= RegDescWindow && off < RegDescWindow+256:
		c.stageConfig(&c.descBuf, p.Payload)
	case off >= RegRekeyWindow && off < RegRekeyWindow+256:
		c.stageConfig(&c.rekeyBuf, p.Payload)
	case off >= RegTagWindow && off < RegTagWindow+0x80:
		c.ingestTags(p.Payload)
	default:
		c.controlWrite(off&^7, p.Payload)
	}
	return nil
}

// stageConfig copies a sealed blob into its staging buffer under mu.
func (c *Controller) stageConfig(buf *[]byte, payload []byte) {
	c.mu.Lock()
	*buf = append([]byte(nil), payload...)
	c.mu.Unlock()
}

// takeConfig claims and clears a staging buffer under mu.
func (c *Controller) takeConfig(buf *[]byte) []byte {
	c.mu.Lock()
	frame := *buf
	*buf = nil
	c.mu.Unlock()
	return frame
}

func (c *Controller) controlWrite(reg uint64, payload []byte) {
	var v uint64
	var tmp [8]byte
	copy(tmp[:], payload)
	v = binary.LittleEndian.Uint64(tmp[:])
	switch reg {
	case RegRuleDoorbell:
		c.installSealedRule()
	case RegDescDoorbell:
		c.installSealedDescriptor()
	case RegRekeyDoorbell:
		c.applySealedRekey()
	case RegDescRelease:
		c.releaseRegion(uint32(v))
	case RegRingDoorbell:
		c.processRing(v)
	case RegTeardown:
		c.Teardown()
	default:
		c.mu.Lock()
		c.regs[reg] = v
		c.mu.Unlock()
	}
}

func (c *Controller) ingestTags(payload []byte) {
	for len(payload) >= TagRecordSize {
		rec := TagRecord{
			Chunk: binary.LittleEndian.Uint32(payload[4:]),
			Epoch: binary.LittleEndian.Uint32(payload[8:]),
		}
		streamHash := binary.LittleEndian.Uint32(payload[0:])
		copy(rec.Tag[:], payload[12:12+secmem.TagSize])
		rec.Stream = c.streamByHash(streamHash)
		if rec.Stream != "" {
			c.tags.Enqueue(rec)
		}
		payload = payload[TagRecordSize:]
	}
}

// streamByHash resolves a wire stream hash against the active streams
// plus the platform's well-known names (MMIO tags arrive before any
// stream context exists). Activation rejects colliding names, so the
// resolution is unambiguous, and a hash matching nothing drops the
// record (fail closed).
func (c *Controller) streamByHash(h uint32) string {
	if name, ok := c.params.NameByHash(h); ok {
		return name
	}
	for _, name := range wellKnownStreams {
		if hashStream(name) == h {
			return name
		}
	}
	return ""
}

// releaseRegion drops one region and all state retained for it —
// shared by the RegDescRelease MMIO path and the ring's release op.
func (c *Controller) releaseRegion(id uint32) {
	c.regions.remove(id)
	c.dropVerified(id)
	c.dropD2HState(id)
	c.dropWriteSpan(id)
	c.dropSpanCache(id)
}

func (c *Controller) installSealedRule() {
	c.installRuleFrame(c.takeConfig(&c.ruleBuf))
}

// installRuleFrame decodes and installs one sealed rule blob; frame may
// alias caller scratch (it is consumed synchronously).
func (c *Controller) installRuleFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject(err)
		return
	}
	r, err := UnmarshalRule(pt)
	if err != nil {
		c.configReject(err)
		return
	}
	if r.Action == actionToL2 {
		c.filter.InstallL1(r)
	} else {
		c.filter.InstallL2(r)
	}
}

func (c *Controller) installSealedDescriptor() {
	c.installDescriptorFrame(c.takeConfig(&c.descBuf))
}

func (c *Controller) installDescriptorFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject(err)
		return
	}
	d, err := UnmarshalDescriptor(pt)
	if err != nil {
		c.configReject(err)
		return
	}
	if err := c.regions.add(d); err != nil {
		c.configReject(err)
		return
	}
	// A reinstalled descriptor reuses the region ID with fresh counters;
	// anything pipelined for the old incarnation is stale.
	c.dropWriteSpan(d.ID)
	c.dropSpanCache(d.ID)
}

// RekeyCommand carries fresh stream material for the §6 IV-exhaustion
// mitigation. It travels sealed under the config stream, so only the
// attested TVM can rotate keys.
type RekeyCommand struct {
	Stream string
	Key    []byte
	Nonce  []byte
}

// Marshal encodes the command for sealed upload.
func (rc RekeyCommand) Marshal() []byte {
	out := []byte{byte(len(rc.Stream))}
	out = append(out, rc.Stream...)
	out = append(out, byte(len(rc.Key)))
	out = append(out, rc.Key...)
	out = append(out, byte(len(rc.Nonce)))
	out = append(out, rc.Nonce...)
	return out
}

// UnmarshalRekeyCommand parses a sealed rekey payload.
func UnmarshalRekeyCommand(b []byte) (RekeyCommand, error) {
	var rc RekeyCommand
	read := func() ([]byte, error) {
		if len(b) < 1 {
			return nil, fmt.Errorf("core: truncated rekey command")
		}
		n := int(b[0])
		if len(b) < 1+n {
			return nil, fmt.Errorf("core: truncated rekey field")
		}
		v := append([]byte(nil), b[1:1+n]...)
		b = b[1+n:]
		return v, nil
	}
	name, err := read()
	if err != nil {
		return rc, err
	}
	rc.Stream = string(name)
	if rc.Key, err = read(); err != nil {
		return rc, err
	}
	if rc.Nonce, err = read(); err != nil {
		return rc, err
	}
	return rc, nil
}

func (c *Controller) applySealedRekey() {
	c.applyRekeyFrame(c.takeConfig(&c.rekeyBuf))
}

func (c *Controller) applyRekeyFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject(err)
		return
	}
	rc, err := UnmarshalRekeyCommand(pt)
	if err != nil {
		c.configReject(err)
		return
	}
	if rc.Stream == StreamConfig {
		// Rotating the config stream itself would let one sealed blob
		// hand control to a new key without attestation; refuse.
		c.configReject(fmt.Errorf("core: config stream cannot self-rekey"))
		return
	}
	if rc.Stream == StreamMMIO {
		// MMIO MACs use raw key material, not a stream context.
		if err := c.params.keys.Install(rc.Stream, rc.Key, rc.Nonce); err != nil {
			c.configReject(err)
		}
		return
	}
	if err := c.params.Rekey(rc.Stream, rc.Key, rc.Nonce); err != nil {
		c.configReject(err)
		return
	}
	// Fail-closed across epochs: plaintext decrypted ahead under the old
	// key is never served after a rekey — the demand path re-runs the
	// acceptance ladder, which rejects pre-rekey material exactly as it
	// did before decrypt-ahead existed.
	c.dropSpanCache(^uint32(0))
}

func (c *Controller) openConfig(frame []byte) ([]byte, error) {
	if frame == nil {
		return nil, fmt.Errorf("core: empty config window")
	}
	sealed, err := UnmarshalBlob(frame)
	if err != nil {
		return nil, err
	}
	stream, err := c.params.Stream(StreamConfig)
	if err != nil {
		return nil, err
	}
	return stream.Open(sealed, nil)
}

func (c *Controller) configReject(err error) {
	_ = err
	c.mu.Lock()
	c.stats.ConfigRejects++
	c.status |= SCStatusConfigErr
	c.mu.Unlock()
	c.obs.cfgRejects.Inc()
}

// --- device-side traffic ------------------------------------------------------

// internalPort is the controller's endpoint presence on the internal
// bus: the upstream port every device-initiated packet must cross.
type internalPort struct{ c *Controller }

func (ip internalPort) DeviceID() pcie.ID                  { return ip.c.id }
func (ip internalPort) Handle(p *pcie.Packet) *pcie.Packet { return ip.c.HandleFromDevice(p) }

// InternalPort returns the controller's internal-bus endpoint, which
// the platform attaches and gives claims over all host address windows
// so device DMA and MSI traffic route through the filter.
func (c *Controller) InternalPort() pcie.Endpoint { return internalPort{c} }

// HandleFromDevice is the internal bus's upstream path: every DMA
// request and MSI the xPU emits crosses the filter and, inside
// protected regions, the crypto handlers.
func (c *Controller) HandleFromDevice(p *pcie.Packet) *pcie.Packet {
	verdict := c.filter.Classify(p)
	switch verdict.Action {
	case ActionDrop:
		return c.reject(p)
	case ActionPassThrough:
		cpl := c.hostBus.Route(p)
		if staleCpl(p, cpl) {
			c.authFailed()
			return c.reject(p)
		}
		return cpl
	}

	desc, ok := c.regions.find(p.Address)
	if !ok {
		// Classified protected but no registered region: fail closed.
		c.authFailed()
		return c.reject(p)
	}
	switch {
	case p.Kind == pcie.MRd && desc.Dir == DirH2D && desc.Class == ActionWriteReadProtect:
		return c.decryptRead(p, desc)
	case p.Kind == pcie.MRd && desc.Dir == DirH2D && desc.Class == ActionWriteProtect:
		return c.verifiedRead(p, desc)
	case p.Kind == pcie.MWr && desc.Dir == DirD2H && desc.Class == ActionWriteReadProtect:
		return c.encryptWrite(p, desc)
	default:
		c.authFailed()
		return c.reject(p)
	}
}

// decryptRead services a device read of an A2 H2D region: fetch the
// ciphertext from host memory, match tags, decrypt, and return
// plaintext to the device. Reads wider than one chunk (the device
// requests up to MaxReadReq at a time) take the span path, which
// amortizes the host round trip and batch-decrypts.
func (c *Controller) decryptRead(p *pcie.Packet, desc Descriptor) *pcie.Packet {
	if uint64(p.Length) > uint64(desc.ChunkSize) {
		return c.decryptReadSpan(p, desc)
	}
	sp := c.obs.tracer.Begin(obsv.TrackSC, "decrypt_read",
		obsv.Hex("addr", p.Address), obsv.I64("bytes", int64(p.Length)),
		obsv.U64("region", uint64(desc.ID)))
	defer sp.End()
	chunk, err := desc.ChunkOf(p.Address, p.Length)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	req := c.pkts.MemRead(c.id, p.Address, p.Length, p.Tag)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) {
		return c.reject(p)
	}
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	rec, ok := c.tagMatch(StreamH2D, desc.FirstCounter+chunk)
	pt, good := c.openChunk(stream, desc, chunk, cpl.Payload, rec, ok)
	if c.recycleOn(c.hostBus) {
		arena.Put(cpl.Payload) // ciphertext consumed either way: public bytes
	}
	if !good {
		c.authFailed()
		return c.reject(p)
	}
	return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
}

// openChunk authenticates and decrypts one H2D chunk whose tag-match
// result is (rec, have). It owns the full per-chunk acceptance policy:
//
//   - have: normal open, advancing the replay watermark; on ErrReplay
//     (the Adaptor reposted the whole table after a loss) fall back to
//     the retained verified record, stateless.
//   - !have: duplicate-read suppression — a device retrying DMA after
//     a fault re-reads chunks whose tags were already consumed. Only
//     chunks accepted once before are re-served, and only via the
//     stateless open that leaves the watermark alone.
//
// Anything never accepted before stays fail-closed; the caller counts
// the auth failure and rejects.
func (c *Controller) openChunk(stream *secmem.Stream, desc Descriptor, chunk uint32, ct []byte, rec TagRecord, have bool) ([]byte, bool) {
	var aadBuf [8]byte
	desc.PutAAD(&aadBuf, chunk)
	aad := aadBuf[:]
	if !have {
		c.mu.Lock()
		vrec, seen := c.verified[desc.ID].get(chunk)
		c.mu.Unlock()
		if !seen {
			return nil, false
		}
		pt, err := stream.OpenStateless(&secmem.Sealed{
			Counter:    desc.FirstCounter + chunk,
			Epoch:      vrec.Epoch,
			Ciphertext: ct,
			Tag:        vrec.Tag,
		}, aad)
		if err != nil {
			return nil, false
		}
		c.duplicateRead()
		return pt, true
	}
	sealed := &secmem.Sealed{
		Counter:    desc.FirstCounter + chunk,
		Epoch:      rec.Epoch,
		Ciphertext: ct,
		Tag:        rec.Tag,
	}
	pt, err := stream.Open(sealed, aad)
	if errors.Is(err, secmem.ErrReplay) {
		c.mu.Lock()
		_, seen := c.verified[desc.ID].get(chunk)
		c.mu.Unlock()
		if seen {
			if pt, err2 := stream.OpenStateless(sealed, aad); err2 == nil {
				c.duplicateRead()
				return pt, true
			}
		}
	}
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.verifiedFor(desc.ID, chunkCount(desc)).put(chunk, rec)
	c.stats.DecryptedChunks++
	c.mu.Unlock()
	c.obs.decrypted.Inc()
	return pt, true
}

// decryptReadSpan services a multi-chunk H2D read: one host fetch for
// the whole span, then a batch decrypt straight into the completion
// payload. The span must start on a chunk boundary and stay inside the
// region; only its last chunk may be partial (region tail). When every
// tag is on hand and fresh, OpenBatchInto validates, decrypts in
// parallel and fail-closes as a unit; any wrinkle — a consumed tag, a
// reposted table behind the watermark — drops to the per-chunk policy
// in openChunk, which knows about duplicates and retransmits.
func (c *Controller) decryptReadSpan(p *pcie.Packet, desc Descriptor) *pcie.Packet {
	sp := c.obs.tracer.Begin(obsv.TrackSC, "decrypt_read_span",
		obsv.Hex("addr", p.Address), obsv.I64("bytes", int64(p.Length)),
		obsv.U64("region", uint64(desc.ID)))
	defer sp.End()
	cs := uint64(desc.ChunkSize)
	off := p.Address - desc.Base
	if off%cs != 0 || p.Address+uint64(p.Length) > desc.Base+desc.Len {
		c.authFailed()
		return c.reject(p)
	}
	first := uint32(off / cs)
	k := int((uint64(p.Length) + cs - 1) / cs)

	// Decrypt-ahead fast path: the span was fetched and batch-decrypted
	// while the device was still consuming the previous span's DMA
	// (pipeline.go). Serve the cached plaintext and keep the pipeline
	// primed with the next span.
	if pt, ok := c.takeCachedSpan(desc.ID, p.Address, p.Length); ok {
		sp.Attr(obsv.Bool("prefetched", true))
		c.prefetchSpan(desc, p.Address+uint64(p.Length))
		return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
	}

	req := c.pkts.MemRead(c.id, p.Address, p.Length, p.Tag)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) {
		return c.reject(p)
	}
	// The bounce fetch is consumed on every path below (its ciphertext
	// is either decrypted into pt or abandoned on reject), so when it
	// came from the host bridge's arena pool it goes back on the way
	// out. Runs before the deferred putScratch clears the sealed views —
	// harmless, the views are rebuilt per span.
	defer func() {
		if c.recycleOn(c.hostBus) {
			arena.Put(cpl.Payload) // ciphertext: public bytes
		}
	}()
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	// ctAt slices chunk i's ciphertext out of the span completion.
	ctAt := func(i int) []byte {
		lo := uint64(i) * cs
		hi := lo + cs
		if hi > uint64(p.Length) {
			hi = uint64(p.Length)
		}
		return cpl.Payload[lo:hi]
	}
	// A span covers at most MaxReadReq/ChunkSize chunks, so the tag
	// bookkeeping lives in the controller's reusable span scratch on
	// the common path.
	sc := c.takeScratch()
	defer c.putScratch(sc)
	recs, have := sc.recs[:], sc.have[:]
	if k > spanChunks {
		recs = make([]TagRecord, k)
		have = make([]bool, k)
	} else {
		recs, have = recs[:k], have[:k]
	}
	all := true
	for i := range recs {
		recs[i], have[i] = c.tagMatch(StreamH2D, desc.FirstCounter+first+uint32(i))
		all = all && have[i]
	}
	// Plaintext destined for the device-facing completion: arena-carved
	// when the device returns completion payloads to the pool, else
	// slab-carved (never recycled, so handing it to taps stays safe).
	pt := c.payloadBuf(int(p.Length), c.internal)
	if all {
		sealed, aads := sc.sealed[:], sc.aads[:]
		if k > spanChunks {
			sealed = make([]secmem.Sealed, k)
			aads = make([][]byte, k)
		} else {
			sealed, aads = sealed[:k], aads[:k]
		}
		aadBuf := sc.aadBuf[:]
		if 8*k > len(aadBuf) {
			aadBuf = arena.Get(8 * k)
			defer arena.Put(aadBuf)
		}
		for i := range sealed {
			chunk := first + uint32(i)
			sealed[i] = secmem.Sealed{
				Counter:    desc.FirstCounter + chunk,
				Epoch:      recs[i].Epoch,
				Ciphertext: ctAt(i),
				Tag:        recs[i].Tag,
			}
			ab := aadBuf[8*i : 8*i+8 : 8*i+8]
			desc.PutAAD((*[8]byte)(ab), chunk)
			aads[i] = ab
		}
		err := stream.OpenBatchInto(pt, sealed, aads)
		if err == nil {
			c.mu.Lock()
			region := c.verifiedFor(desc.ID, chunkCount(desc))
			for i := range recs {
				region.put(first+uint32(i), recs[i])
			}
			c.stats.DecryptedChunks += uint64(k)
			c.mu.Unlock()
			c.obs.decrypted.Add(uint64(k))
			c.prefetchSpan(desc, p.Address+uint64(p.Length))
			return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
		}
		if !errors.Is(err, secmem.ErrReplay) {
			// ErrAuth (dst already zeroed) or a fault-hook error: the
			// whole span fails closed, exactly like a single bad chunk.
			c.authFailed()
			return c.reject(p)
		}
		// A counter behind the watermark: some chunks are benign
		// retransmits. Nothing was consumed — the batch validates before
		// it decrypts — so sort it out chunk by chunk below.
	}
	for i := 0; i < k; i++ {
		cpt, good := c.openChunk(stream, desc, first+uint32(i), ctAt(i), recs[i], have[i])
		if !good {
			// Zero the partial plaintext before dropping it: fail-closed
			// spans never leak the chunks that did verify.
			for j := range pt {
				pt[j] = 0
			}
			c.authFailed()
			return c.reject(p)
		}
		copy(pt[uint64(i)*cs:], cpt)
	}
	return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
}

// duplicateRead counts one benign retransmit.
func (c *Controller) duplicateRead() {
	c.mu.Lock()
	c.stats.DuplicateReads++
	c.mu.Unlock()
	c.obs.dupReads.Inc()
}

// verifiedRead services a device read of an A3 H2D region (e.g. the
// command ring): fetch plaintext, verify its one-shot MAC record.
func (c *Controller) verifiedRead(p *pcie.Packet, desc Descriptor) *pcie.Packet {
	sp := c.obs.tracer.Begin(obsv.TrackSC, "verified_read",
		obsv.Hex("addr", p.Address), obsv.I64("bytes", int64(p.Length)),
		obsv.U64("region", uint64(desc.ID)))
	defer sp.End()
	chunk, err := desc.ChunkOf(p.Address, p.Length)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	req := c.pkts.MemRead(c.id, p.Address, p.Length, p.Tag)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) {
		return c.reject(p)
	}
	rec, ok := c.tagMatch(StreamMMIO, desc.ID<<16|chunk)
	if !ok {
		c.authFailed()
		return c.reject(p)
	}
	var aad [8]byte
	desc.PutAAD(&aad, chunk)
	want, err := c.params.keys.MACSum(StreamMMIO, aad[:], cpl.Payload)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	for i := 0; i < secmem.TagSize; i++ {
		if want[i] != rec.Tag[i] {
			c.authFailed()
			return c.reject(p)
		}
	}
	c.mu.Lock()
	c.stats.VerifiedChunks++
	c.mu.Unlock()
	c.obs.verified.Inc()
	// The fetched completion's payload is immutable once routed, so the
	// device-facing completion may alias it instead of copying.
	return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, cpl.Payload)
}

// encryptWrite services a device write into an A2 D2H region through
// the write-span pipeline (pipeline.go): the chunk is staged with its
// in-order neighbours and the span seals as one engine batch whose
// ciphertext DMA overlaps the remaining chunks' crypto. Flushes happen
// on a full span, a sequence break, the metadata publish cadence, and
// region completion, so host-visible progress never runs ahead of the
// ciphertext and tags backing it.
func (c *Controller) encryptWrite(p *pcie.Packet, desc Descriptor) *pcie.Packet {
	sp := c.obs.tracer.Begin(obsv.TrackSC, "encrypt_write",
		obsv.Hex("addr", p.Address), obsv.I64("bytes", int64(len(p.Payload))),
		obsv.U64("region", uint64(desc.ID)))
	defer sp.End()
	chunk, err := desc.ChunkOf(p.Address, uint32(len(p.Payload)))
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	ok := true
	if c.needsSpanFlush(desc.ID, chunk) {
		ok = c.flushWriteSpan(desc)
	}
	if c.stageWrite(desc, chunk, p.Payload) {
		ok = c.flushWriteSpan(desc) && ok
	}
	if !ok {
		c.authFailed()
		return c.reject(p)
	}
	return nil
}

// tagSpanRecords is how many marshalled tag records fit one TLP payload.
const tagSpanRecords = pcie.MaxPayload / TagRecordSize

// metaPublishEvery is the metadata batch granularity (§5): progress
// counters reach the TVM-resident buffer every this many chunks and at
// region completion, not once per chunk.
const metaPublishEvery = 8

// tagSpan accumulates marshalled tag records for consecutive D2H chunks
// of one region. The tag table is contiguous and the device writes
// chunks in ascending order, so records coalesce into MaxPayload-sized
// table writes instead of one TLP per chunk.
type tagSpan struct {
	start uint32 // chunk index of the first buffered record
	next  uint32 // chunk index that extends the span
	buf   []byte // marshalled records (arena-backed, public bytes)
}

// depositTag buffers chunk's tag record for desc's tag table and
// advances the region's completion count. The span flushes to host
// memory when it fills a TLP, when the chunk sequence breaks (a lost
// chunk under fault injection), and — together with the batched
// metadata counter — every metaPublishEvery chunks and at region
// completion, so whenever the metadata buffer claims N chunks the tag
// table already holds their records. Packets are built under c.mu but
// routed after it is released (routing can reenter the controller).
func (c *Controller) depositTag(desc Descriptor, chunk uint32, rec TagRecord) {
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	c.mu.Lock()
	span := c.tagPend[desc.ID]
	var stale *pcie.Packet
	if span == nil {
		span = &tagSpan{start: chunk, buf: arena.Get(tagSpanRecords * TagRecordSize)[:0]}
		c.tagPend[desc.ID] = span
	} else if chunk != span.next {
		stale = c.tagFlushPacket(desc, span)
		span.start, span.buf = chunk, span.buf[:0]
	}
	span.buf = rec.AppendMarshal(span.buf)
	span.next = chunk + 1

	c.stats.EncryptedChunks++
	c.d2hChunks[desc.ID]++
	count := c.d2hChunks[desc.ID]
	publish := count >= (desc.Len+cs-1)/cs || count%metaPublishEvery == 0
	var flush, meta *pcie.Packet
	if publish || len(span.buf) >= tagSpanRecords*TagRecordSize {
		flush = c.tagFlushPacket(desc, span)
		span.start, span.buf = span.next, span.buf[:0]
	}
	if publish {
		meta = c.metadataPacketLocked(desc.ID, count)
	}
	c.mu.Unlock()
	if stale != nil {
		c.routeTagWrite(stale)
	}
	if flush != nil {
		c.routeTagWrite(flush)
	}
	if meta != nil {
		c.hostBus.Route(meta)
	}
}

// routeTagWrite delivers a tag-table write and, when the recycling loop
// is closed, reclaims its payload: the host bridge copies MWr bodies
// synchronously, so after Route the SC is the payload's last holder.
func (c *Controller) routeTagWrite(p *pcie.Packet) {
	payload := p.Payload
	c.hostBus.Route(p)
	if c.recycleOn(c.hostBus) {
		arena.Put(payload) // marshalled tags: public bytes
	}
}

// tagFlushPacket builds the tag-table write for a span's buffered
// records, or nil when the span is empty. The records are copied out of
// the span buffer (which refills immediately) into arena or slab memory
// via payloadBuf, so no per-flush heap allocation occurs.
func (c *Controller) tagFlushPacket(desc Descriptor, span *tagSpan) *pcie.Packet {
	if len(span.buf) == 0 {
		return nil
	}
	addr := desc.TagBase + uint64(span.start)*TagRecordSize
	body := c.payloadBuf(len(span.buf), c.hostBus)
	copy(body, span.buf)
	return c.pkts.MemWrite(c.id, addr, body)
}

// dropD2HState discards a released region's pending tag records and
// its D2H progress counter.
func (c *Controller) dropD2HState(region uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if span, ok := c.tagPend[region]; ok {
		arena.Put(span.buf)
		delete(c.tagPend, region)
	}
	delete(c.d2hChunks, region)
}

// dropVerified forgets retained chunk records for a released region.
func (c *Controller) dropVerified(region uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.verified, region)
}

// metadataPacketLocked implements the §5 I/O-read optimization: instead
// of the Adaptor polling the SC for DMA metadata, the SC batches
// progress counters into a TVM-resident buffer (one 8-byte
// completed-chunk count per region) that the Adaptor reads as plain
// memory. Returns the counter write, or nil when no buffer is
// configured or the region falls outside the batch window. Callers
// hold c.mu and route the packet after releasing it.
func (c *Controller) metadataPacketLocked(region uint32, count uint64) *pcie.Packet {
	metaBase := c.regs[RegMetaBase]
	size := c.regs[RegMetaSize]
	if metaBase == 0 {
		return nil
	}
	slot := metaBase + uint64(region)*8
	if size > 0 && slot+8 > metaBase+size {
		return nil // region id outside the configured batch window
	}
	buf := c.slab.Take(8)
	binary.LittleEndian.PutUint64(buf, count)
	return c.pkts.MemWrite(c.id, slot, buf)
}

// D2HProgress reports completed chunks for a region — the MMIO-polled
// fallback the non-optimized ablation uses in place of the metadata
// batch buffer.
func (c *Controller) D2HProgress(region uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d2hChunks[region]
}

// AttestDevice runs the §6 software-based attestation fallback against
// the guarded xPU: write a fresh nonce to the device's attestation
// register over the internal bus, read back the response digest, and
// compare with the digest the verifier computes from the golden
// firmware measurement. expected is the response the caller derived
// (e.g. xpu.AttestDigest(goldenFirmware, nonce)); attestReg/respReg
// are BAR0-relative.
func (c *Controller) AttestDevice(nonce uint64, expected uint64, attestReg, respReg uint64) bool {
	if c.internal == nil {
		return false
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], nonce)
	c.internal.Route(pcie.NewMemWrite(c.id, c.xpuBar.Base+attestReg, buf[:]))
	req := pcie.NewMemRead(c.id, c.xpuBar.Base+respReg, 8, 0)
	cpl := c.internal.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || len(cpl.Payload) < 8 {
		return false
	}
	return binary.LittleEndian.Uint64(cpl.Payload) == expected
}

// Teardown destroys key material, drops regions and pending tags, and
// triggers the environment guard's device clean. The filter's static
// platform rules survive; per-session rules are the TVM's to reinstall.
func (c *Controller) Teardown() {
	c.mu.Lock()
	c.stats.Teardowns++
	c.mmioSeq = 0
	c.ringHead = 0
	c.cplWord = 0
	c.d2hChunks = make(map[uint32]uint64)
	for _, span := range c.tagPend {
		arena.Put(span.buf)
	}
	c.tagPend = make(map[uint32]*tagSpan)
	droppedSpans := c.wspans
	c.wspans = make(map[uint32]*writeSpan)
	c.verified = make(map[uint32]*verifiedSet)
	c.mu.Unlock()
	for _, span := range droppedSpans {
		c.recyclePts(span)
	}
	c.dropSpanCache(^uint32(0))
	c.obs.teardowns.Inc()
	c.obs.tracer.Instant(obsv.TrackSC, "teardown")
	c.params.DestroyAll()
	c.regions.clear()
	c.tags.Clear()
	// The hook routes reset MMIO to the device, so it must run with no
	// controller lock held.
	if c.onTeardown != nil {
		c.onTeardown()
	}
}
