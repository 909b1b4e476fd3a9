// Package adaptor implements ccAI's TVM-side software component (§3,
// §7.1): a kernel module that gives the unmodified native xPU driver a
// confidential path to the device. It stages sensitive payloads through
// encrypted bounce buffers (de/encrypt_data), uploads Packet Filter
// policies and transfer descriptors to the PCIe-SC through sealed
// configuration windows (pkt_filter_manage), posts authentication-tag
// records, and wraps control MMIO with the A3 integrity protocol — all
// without touching the driver or the application.
package adaptor

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ccai/internal/arena"
	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/sim"
)

// Options select the §5 optimizations. The defaults (all on) are the
// ccAI configuration; Figure 11's "No Opt" ablation clears them.
type Options struct {
	// BatchTags packs many tag records into each upload packet instead
	// of one I/O write per record.
	BatchTags bool
	// BatchedMetadata reads DMA progress from the TVM-resident metadata
	// buffer instead of polling SC registers with I/O reads.
	BatchedMetadata bool
	// HWCrypto uses AES-NI-class hardware instructions for
	// de/encryption (timing model; the functional bytes are identical).
	// Crypto always runs serially on the calling goroutine, one
	// pipeline per tenant: the paper's "allocate additional CPU
	// threads" optimization is priced by the virtual-time cost model
	// (bench.OptSet.ParallelCrypto), not emulated here.
	HWCrypto bool
	// SubmitRing batches control-path operations (descriptor installs,
	// tag uploads, releases, notifies, A3 guarded writes) into a shared
	// submission ring published with one doorbell MMIO per burst
	// instead of one MMIO write per operation.
	SubmitRing bool
	// CompletionReap serves device command-head polls from the
	// submission ring's completion word — DMA-written by the SC after
	// every forwarded doorbell — instead of one guarded MMIO read per
	// task. Requires SubmitRing; without it Head() falls back to MMIO.
	CompletionReap bool
}

// Optimized is the full ccAI optimization set.
func Optimized() Options {
	return Options{BatchTags: true, BatchedMetadata: true, HWCrypto: true, SubmitRing: true, CompletionReap: true}
}

// NoOpt is the Figure 11 ablation configuration.
func NoOpt() Options { return Options{} }

// IOStats counts the Adaptor's MMIO interactions with the PCIe-SC —
// the quantity §5's optimizations exist to reduce.
type IOStats struct {
	MMIOWrites uint64
	MMIOReads  uint64
}

// Region is one staged transfer: the bounce buffer, its descriptor as
// registered with the SC, and (for D2H) the tag table.
type Region struct {
	Desc     core.Descriptor
	Buf      *mem.Buffer
	TagBuf   *mem.Buffer
	PlainLen int64
	// Recs retains the posted tag records so recovery can repost them
	// after tag-packet loss (RepostTags).
	Recs []core.TagRecord
}

// Adaptor is the TVM-side component instance. It owns the TVM replicas
// of the protected streams (negotiated during trust establishment) and
// the staging memory in the shared region.
type Adaptor struct {
	// mu serializes all session state: stream replicas, sequence
	// numbers, recovery counters. Retry paths run under it, so
	// concurrent staging/collect calls cannot interleave half-recovered
	// state.
	mu sync.Mutex

	id    pcie.ID
	bus   *pcie.Bus
	space *mem.Space
	keys  *secmem.KeyStore

	scBar   uint64
	xpuBar  uint64
	region  string // staging region name within the space
	opts    Options
	mmioSeq uint32
	nextID  uint32
	nextTag uint8 // transaction tag for non-posted requests; fresh per attempt

	h2d    *secmem.Stream // seal side
	d2h    *secmem.Stream // open side
	config *secmem.Stream // seal side

	metaBuf *mem.Buffer

	// ringBuf is the submission-ring backing memory (allocated once,
	// survives teardown); ring is the live producer state, nil when the
	// ring optimization is off or the session is torn down.
	ringBuf *mem.Buffer
	ring    *submitRing

	// lastCplHead is the highest device command head accepted by
	// CompletionHead this session — the monotonicity floor that rejects
	// regressed or replayed completion-word writebacks.
	lastCplHead uint64

	io     IOStats
	policy RetryPolicy
	clock  *sim.Engine
	rec    RecoveryStats

	// Per-call scratch reused across staging/collect batches (guarded by
	// mu): the slice-header tables for batch seal/open. Plaintext
	// aliases are cleared before the call returns so the Adaptor never
	// retains references into a caller's buffer.
	scratchPts    [][]byte
	scratchAADs   [][]byte
	scratchSealed []secmem.Sealed

	// hub propagates observability to streams activated in HWInit; obs
	// holds the cached handles (zero value = uninstrumented).
	hub *obsv.Hub
	obs adaptorObs
}

// SharedRegion is the mem.Space region name the Adaptor stages bounce
// buffers in; the platform must create it and IOMMU-map it for the SC.
const SharedRegion = "shared"

// New constructs an Adaptor for a TVM with requester ID id, talking to
// a PCIe-SC whose control BAR is at scBar and whose guarded xPU window
// starts at xpuBar. Staging memory comes from the default SharedRegion.
func New(id pcie.ID, bus *pcie.Bus, space *mem.Space, keys *secmem.KeyStore, scBar, xpuBar uint64, opts Options) *Adaptor {
	return NewScoped(id, bus, space, keys, scBar, xpuBar, SharedRegion, opts)
}

// NewScoped is New with an explicit staging-region name; multi-tenant
// platforms give each tenant its own shared window.
func NewScoped(id pcie.ID, bus *pcie.Bus, space *mem.Space, keys *secmem.KeyStore, scBar, xpuBar uint64, region string, opts Options) *Adaptor {
	return &Adaptor{
		id: id, bus: bus, space: space, keys: keys,
		scBar: scBar, xpuBar: xpuBar, region: region, opts: opts, nextID: 1,
		nextTag: 1, policy: DefaultRetryPolicy(),
	}
}

// CryptoWorkers reports how many goroutines the Adaptor's batch crypto
// uses: always 1, because Adaptor crypto runs on the calling goroutine.
// Benchmarks size their secmem probes from it so the probe times what
// the datapath does.
func (a *Adaptor) CryptoWorkers() int { return 1 }

// Options reports the active optimization set.
func (a *Adaptor) Options() Options { return a.opts }

// IO reports cumulative MMIO interaction counts.
func (a *Adaptor) IO() IOStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.io
}

// HWInit activates the Adaptor's stream replicas from negotiated key
// material and programs the metadata batch buffer (§7.1 hw_init).
func (a *Adaptor) HWInit() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.h2d, err = a.keys.Stream(core.StreamH2D); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	if a.d2h, err = a.keys.Stream(core.StreamD2H); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	if a.config, err = a.keys.Stream(core.StreamConfig); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	track := obsv.TrackCrypto + "/adaptor"
	a.h2d.SetObserver(a.hub, track, core.StreamH2D)
	a.d2h.SetObserver(a.hub, track, core.StreamD2H)
	a.config.SetObserver(a.hub, track, core.StreamConfig)
	if a.opts.BatchedMetadata {
		buf, err := a.space.Alloc(a.region, "dma-metadata", mem.PageSize)
		if err != nil {
			return fmt.Errorf("adaptor: metadata buffer: %w", err)
		}
		a.metaBuf = buf
		a.mmioWrite64(core.RegMetaBase, buf.Base())
		a.mmioWrite64(core.RegMetaSize, uint64(buf.Size()))
	}
	if a.opts.SubmitRing {
		if a.ringBuf == nil {
			buf, err := a.space.Alloc(a.region, "dma-submitring", int64(core.RingHdrSize+ringSlots*core.RingSlotSize))
			if err != nil {
				return fmt.Errorf("adaptor: submission ring: %w", err)
			}
			a.ringBuf = buf
		} else {
			// Re-established session: scrub the head/status words the SC
			// wrote last session before re-arming.
			hdr := a.ringBuf.Bytes()[:core.RingHdrSize]
			for i := range hdr {
				hdr[i] = 0
			}
		}
		a.ring = &submitRing{buf: a.ringBuf, slots: ringSlots}
		a.lastCplHead = 0
		a.mmioWrite64(core.RegRingBase, a.ringBuf.Base())
		a.mmioWrite64(core.RegRingSize, ringSlots)
	}
	return nil
}

// --- raw SC MMIO -------------------------------------------------------------

func (a *Adaptor) mmioWrite(off uint64, payload []byte) {
	a.io.MMIOWrites++
	a.obs.mmioWrites.Inc()
	a.bus.Route(pcie.NewMemWrite(a.id, a.scBar+off, payload))
}

func (a *Adaptor) mmioWrite64(off uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	a.mmioWrite(off, buf[:])
}

// SCStatus reads the controller's status register (an I/O read with
// the full retry discipline).
func (a *Adaptor) SCStatus() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	cpl, err := a.readWithRetry(a.scBar + core.RegSCStatus)
	if err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(cpl.Payload)
}

// --- pkt_filter_manage --------------------------------------------------------

// InstallRule seals a Packet Filter policy under the config stream and
// uploads it through the rule window (§4.1's encrypted configuration).
func (a *Adaptor) InstallRule(r core.Rule) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.config == nil {
		return fmt.Errorf("adaptor: session not established (HWInit) or already torn down")
	}
	sealed, err := a.sealWithRetry(a.config, r.Marshal(), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal rule: %w", err)
	}
	if err := a.sendBlob(core.RingOpRule, core.RegRuleWindow, core.RegRuleDoorbell, core.MarshalBlob(sealed)); err != nil {
		return err
	}
	return a.flushRingLocked()
}

func (a *Adaptor) registerDescriptor(d core.Descriptor) error {
	sealed, err := a.sealWithRetry(a.config, d.Marshal(), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal descriptor: %w", err)
	}
	// No flush here: staging callers batch the descriptor with the tag
	// and notify entries that follow it and publish once.
	return a.sendBlob(core.RingOpDesc, core.RegDescWindow, core.RegDescDoorbell, core.MarshalBlob(sealed))
}

// ReleaseRegion drops a transfer region on the SC and frees its staging
// memory.
func (a *Adaptor) ReleaseRegion(r *Region) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sendRelease(r.Desc.ID) == nil {
		// A desync inside the push already tore the session down (the SC
		// wipes its regions); only a delivered release needs publishing.
		_ = a.flushRingLocked()
	}
	if r.Buf != nil {
		a.space.Free(r.Buf)
	}
	if r.TagBuf != nil {
		a.space.Free(r.TagBuf)
	}
}

// --- tag uploads ---------------------------------------------------------------

// postTags uploads tag records; batched mode packs as many as fit one
// TLP payload, non-optimized mode issues one I/O write per record.
func (a *Adaptor) postTags(recs []core.TagRecord) error {
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "post_tags",
		obsv.I64("records", int64(len(recs))))
	defer sp.End()
	if !a.opts.BatchTags {
		var one [core.TagRecordSize]byte
		for _, r := range recs {
			if err := a.sendTags(r.AppendMarshal(one[:0])); err != nil {
				return err
			}
		}
		return nil
	}
	// One reused arena buffer per upload burst: both sendTags paths copy
	// the payload (into the ring slot or the MemWrite), so the buffer is
	// free to refill immediately.
	perPacket := pcie.MaxPayload / core.TagRecordSize
	payload := arena.Get(perPacket * core.TagRecordSize)[:0]
	for len(recs) > 0 {
		n := perPacket
		if len(recs) < n {
			n = len(recs)
		}
		payload = payload[:0]
		for _, r := range recs[:n] {
			payload = r.AppendMarshal(payload)
		}
		if err := a.sendTags(payload); err != nil {
			arena.Put(payload)
			return err
		}
		recs = recs[n:]
	}
	arena.Put(payload) // wire-format tags: public bytes
	return nil
}

// postTag uploads a single record directly (never via the ring) — the
// guarded-MMIO path, where the record must reach the SC before the A3
// write that immediately follows it on the bus.
func (a *Adaptor) postTag(r core.TagRecord) {
	var one [core.TagRecordSize]byte
	a.mmioWrite(core.RegTagWindow, r.AppendMarshal(one[:0]))
}

// --- encrypt_data / staging ------------------------------------------------------

// StageH2D encrypts data into a fresh bounce region chunk-by-chunk
// (consuming consecutive IV counters), posts the chunk tags, registers
// the region with the SC, and sends the single region-ready notify.
// The returned region's bounce address is what the native driver's DMA
// descriptors point at.
func (a *Adaptor) StageH2D(name string, data []byte) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.h2d == nil {
		return nil, fmt.Errorf("adaptor: session not established (HWInit) or already torn down")
	}
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "stage_h2d",
		obsv.Str("region", name), obsv.I64("bytes", int64(len(data))))
	defer sp.End()
	if _, err := a.maybeRekeyLocked(); err != nil {
		return nil, err
	}
	buf, err := a.space.Alloc(a.region, name, int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("adaptor: bounce alloc: %w", err)
	}
	first := a.h2d.SendCounter() + 1
	desc := core.Descriptor{
		ID: a.nextID, Dir: core.DirH2D, Class: core.ActionWriteReadProtect,
		Base: buf.Base(), Len: uint64(len(data)),
		ChunkSize: core.ChunkSize, FirstCounter: first,
	}
	a.nextID++

	// Register the descriptor up front so the tag packets the pipeline
	// flushes below land against a known region; a failed pipeline
	// releases it again.
	if err := a.registerDescriptor(desc); err != nil {
		a.space.Free(buf)
		return nil, err
	}

	// Chunk the payload. Counters are reserved contiguously under the
	// stream lock (matching desc.FirstCounter) and AADs share one
	// backing array instead of one alloc per chunk.
	nChunks := (len(data) + core.ChunkSize - 1) / core.ChunkSize
	if cap(a.scratchPts) < nChunks {
		a.scratchPts = make([][]byte, nChunks)
	}
	if cap(a.scratchAADs) < nChunks {
		a.scratchAADs = make([][]byte, nChunks)
	}
	pts := a.scratchPts[:nChunks]
	aads := a.scratchAADs[:nChunks]
	aadAll := arena.Get(8 * nChunks)
	for i := 0; i < nChunks; i++ {
		off := i * core.ChunkSize
		end := off + core.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		pts[i] = data[off:end]
		ab := aadAll[i*8 : i*8+8 : i*8+8]
		desc.PutAAD((*[8]byte)(ab), uint32(i))
		aads[i] = ab
	}

	// Streaming pipeline (DESIGN.md §10): the stream seals chunks in
	// submission order and this emit stage copies each into the bounce
	// buffer and flushes full tag packets as they fill, so no "seal
	// all, then write all" barrier holds the tag traffic back. The
	// chunk's arena-backed ciphertext is only valid inside emit, so it
	// is copied out before returning.
	recs := make([]core.TagRecord, 0, nChunks)
	out := buf.Bytes()
	perPacket := pcie.MaxPayload / core.TagRecordSize
	tagPayload := arena.Get(perPacket * core.TagRecordSize)[:0]
	emit := func(i int, chunk *secmem.Sealed) error {
		copy(out[i*core.ChunkSize:], chunk.Ciphertext)
		recs = append(recs, core.TagRecord{
			Stream: core.StreamH2D, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag,
		})
		r := &recs[len(recs)-1]
		if a.opts.BatchTags {
			tagPayload = r.AppendMarshal(tagPayload)
			if len(tagPayload) >= perPacket*core.TagRecordSize {
				if err := a.sendTags(tagPayload); err != nil {
					return err
				}
				tagPayload = tagPayload[:0]
			}
		} else {
			var one [core.TagRecordSize]byte
			return a.sendTags(r.AppendMarshal(one[:0]))
		}
		return nil
	}
	err = a.sealBatchStreamWithRetry(a.h2d, pts, aads, emit)
	if err == nil && len(tagPayload) > 0 {
		err = a.sendTags(tagPayload)
	}
	arena.Put(tagPayload) // wire-format tags: public bytes
	arena.PutZero(aadAll) // AAD scratch follows the secret-adjacent discipline
	for i := range pts {  // drop plaintext aliases before returning
		pts[i], aads[i] = nil, nil
	}
	if err == nil {
		// One region-ready notify, then one doorbell publishes the whole
		// burst: descriptor, tag packets, notify (the batched I/O of §5).
		err = a.sendNotify(desc.ID)
	}
	if err == nil {
		err = a.flushRingLocked()
	}
	if err != nil {
		if a.sendRelease(desc.ID) == nil {
			_ = a.flushRingLocked()
		}
		a.space.Free(buf)
		return nil, fmt.Errorf("adaptor: encrypt_data: %w", err)
	}
	return &Region{Desc: desc, Buf: buf, PlainLen: int64(len(data)), Recs: recs}, nil
}

// StageVerified stages plaintext the device may read under action A3
// (e.g. the command ring): the data sits in the clear but each chunk
// carries a one-shot MAC record keyed to its region position.
func (a *Adaptor) StageVerified(name string, size int64, chunkSize uint32) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.config == nil {
		return nil, fmt.Errorf("adaptor: session not established (HWInit) or already torn down")
	}
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "stage_verified",
		obsv.Str("region", name), obsv.I64("bytes", size))
	defer sp.End()
	buf, err := a.space.Alloc(a.region, name, size)
	if err != nil {
		return nil, fmt.Errorf("adaptor: verified alloc: %w", err)
	}
	desc := core.Descriptor{
		ID: a.nextID, Dir: core.DirH2D, Class: core.ActionWriteProtect,
		Base: buf.Base(), Len: uint64(size), ChunkSize: chunkSize,
	}
	a.nextID++
	if err := a.registerDescriptor(desc); err != nil {
		a.space.Free(buf)
		return nil, err
	}
	if err := a.flushRingLocked(); err != nil {
		a.space.Free(buf)
		return nil, err
	}
	return &Region{Desc: desc, Buf: buf, PlainLen: size}, nil
}

// SyncVerified recomputes and posts MAC records for the given chunk
// indices of an A3 region; the driver (via the platform hook) calls
// this right before ringing a doorbell that will make the device read
// those chunks.
func (a *Adaptor) SyncVerified(r *Region, chunks []uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "sync_verified",
		obsv.U64("region", uint64(r.Desc.ID)), obsv.I64("chunks", int64(len(chunks))))
	defer sp.End()
	recs := make([]core.TagRecord, 0, len(chunks))
	var aad [8]byte
	for _, c := range chunks {
		off := int64(c) * int64(r.Desc.ChunkSize)
		data := r.Buf.Slice(off, int64(r.Desc.ChunkSize))
		r.Desc.PutAAD(&aad, c)
		mac, err := a.keys.MACSum(core.StreamMMIO, aad[:], data)
		if err != nil {
			return fmt.Errorf("adaptor: %w", err)
		}
		rec := core.TagRecord{Stream: core.StreamMMIO, Chunk: r.Desc.ID<<16 | c}
		copy(rec.Tag[:], mac[:secmem.TagSize])
		recs = append(recs, rec)
	}
	if err := a.postTags(recs); err != nil {
		return err
	}
	return a.flushRingLocked()
}

// PrepareD2H allocates a result bounce region plus its tag table and
// registers both with the SC.
func (a *Adaptor) PrepareD2H(name string, size int64) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.d2h == nil {
		return nil, fmt.Errorf("adaptor: session not established (HWInit) or already torn down")
	}
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "prepare_d2h",
		obsv.Str("region", name), obsv.I64("bytes", size))
	defer sp.End()
	buf, err := a.space.Alloc(a.region, name, size)
	if err != nil {
		return nil, fmt.Errorf("adaptor: d2h alloc: %w", err)
	}
	chunks := (size + core.ChunkSize - 1) / core.ChunkSize
	tagBuf, err := a.space.Alloc(a.region, name+"-tags", chunks*core.TagRecordSize)
	if err != nil {
		a.space.Free(buf)
		return nil, fmt.Errorf("adaptor: tag table alloc: %w", err)
	}
	desc := core.Descriptor{
		ID: a.nextID, Dir: core.DirD2H, Class: core.ActionWriteReadProtect,
		Base: buf.Base(), Len: uint64(size), TagBase: tagBuf.Base(),
		ChunkSize: core.ChunkSize,
	}
	a.nextID++
	if err := a.registerDescriptor(desc); err != nil {
		a.space.Free(buf)
		a.space.Free(tagBuf)
		return nil, err
	}
	if err := a.flushRingLocked(); err != nil {
		a.space.Free(buf)
		a.space.Free(tagBuf)
		return nil, err
	}
	return &Region{Desc: desc, Buf: buf, TagBuf: tagBuf, PlainLen: size}, nil
}

// D2HProgress reports how many chunks the SC has completed for a D2H
// region — from the TVM metadata buffer when batched (a memory read),
// otherwise by polling the SC over MMIO (the §5 anti-pattern, counted
// as an I/O read).
func (a *Adaptor) D2HProgress(r *Region, sc *core.Controller) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Ordering safety: anything still pending in the ring (tag records,
	// a notify) must reach the SC before progress is interpreted.
	if err := a.flushRingLocked(); err != nil {
		return 0
	}
	if a.opts.BatchedMetadata && a.metaBuf != nil {
		v, err := a.space.ReadUint64(a.metaBuf.Base() + uint64(r.Desc.ID)*8)
		if err != nil {
			return 0
		}
		return v
	}
	a.io.MMIOReads++
	a.obs.mmioReads.Inc()
	return sc.D2HProgress(r.Desc.ID)
}

// CollectD2H authenticates and decrypts a completed result region
// (decrypt_data): ciphertext from the bounce buffer, tags from the tag
// table, counters enforced in order by the d2h stream replica.
func (a *Adaptor) CollectD2H(r *Region, n int64) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.d2h == nil {
		return nil, fmt.Errorf("adaptor: session not established (HWInit) or already torn down")
	}
	if n > r.PlainLen {
		return nil, fmt.Errorf("adaptor: collect %d bytes from %d-byte region", n, r.PlainLen)
	}
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "collect_d2h",
		obsv.U64("region", uint64(r.Desc.ID)), obsv.I64("bytes", n))
	defer sp.End()
	if err := a.flushRingLocked(); err != nil {
		return nil, err
	}
	// Assemble the batch from the bounce buffer + tag table (records by
	// value, AADs sharing one backing array), then authenticate and
	// decrypt straight into the result buffer; the stream replica
	// enforces the strictly-increasing counter discipline across the
	// whole batch, and a failed batch comes back zeroed rather than
	// partially decrypted.
	nChunks := int((n + core.ChunkSize - 1) / core.ChunkSize)
	if cap(a.scratchSealed) < nChunks {
		a.scratchSealed = make([]secmem.Sealed, nChunks)
	}
	if cap(a.scratchAADs) < nChunks {
		a.scratchAADs = make([][]byte, nChunks)
	}
	sealedChunks := a.scratchSealed[:nChunks]
	aads := a.scratchAADs[:nChunks]
	aadAll := arena.Get(8 * nChunks)
	for i := 0; i < nChunks; i++ {
		off := int64(i) * core.ChunkSize
		end := off + core.ChunkSize
		if end > n {
			end = n
		}
		recBytes := r.TagBuf.Slice(int64(i)*core.TagRecordSize, core.TagRecordSize)
		sealedChunks[i] = secmem.Sealed{
			Counter:    binary.LittleEndian.Uint32(recBytes[4:]),
			Epoch:      binary.LittleEndian.Uint32(recBytes[8:]),
			Ciphertext: r.Buf.Slice(off, end-off),
		}
		copy(sealedChunks[i].Tag[:], recBytes[12:])
		ab := aadAll[i*8 : i*8+8 : i*8+8]
		r.Desc.PutAAD((*[8]byte)(ab), uint32(i))
		aads[i] = ab
	}
	out := make([]byte, n) // escapes to the caller: a real allocation
	err := a.openBatchIntoWithRetry(a.d2h, out, sealedChunks, aads)
	arena.PutZero(aadAll)
	for i := range sealedChunks { // drop bounce-buffer aliases
		sealedChunks[i].Ciphertext, aads[i] = nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("adaptor: decrypt_data: %w", err)
	}
	return out, nil
}

// --- control MMIO -----------------------------------------------------------------

// GuardedWrite performs an A3-protected MMIO write to a device
// register: post the MAC record for the upcoming sequence number, then
// issue the write through the SC's shadow window.
func (a *Adaptor) GuardedWrite(reg uint64, value uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "guarded_write", obsv.Hex("reg", reg))
	defer sp.End()
	// A3 stays on the direct MMIO path: each write is already
	// individually MACed and sequence-bound, and batching it would hide
	// the very TLPs the per-write integrity protocol protects. Pending
	// ring entries (tag syncs, notifies) are published first so the
	// guarded write cannot pass them.
	if err := a.flushRingLocked(); err != nil {
		return err
	}
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], value)
	var hdr [16]byte
	core.PutMACHeader(&hdr, a.mmioSeq, a.xpuBar+reg, uint32(len(payload)))
	mac, err := a.keys.MACSum(core.StreamMMIO, hdr[:], payload[:])
	if err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	rec := core.TagRecord{Stream: core.StreamMMIO, Chunk: a.mmioSeq}
	copy(rec.Tag[:], mac[:secmem.TagSize])
	a.postTag(rec)
	a.mmioSeq++

	a.io.MMIOWrites++
	a.bus.Route(pcie.NewMemWrite(a.id, a.xpuBar+reg, payload[:]))
	return nil
}

// CompletionHead reads the device's command-head register, serving it
// from the submission ring's completion word (a host-memory read) when
// batched reaping is active. The word is accepted only when it carries
// the RingCplValid tag and is monotonic against the session floor;
// anything else — never posted, scrubbed, regressed, or corrupted —
// falls back to the guarded MMIO read, which is authoritative. A stale
// word is safe by construction: the SC only writes heads it just read
// from the device, so a lost writeback makes the producer see an old
// (smaller) head and re-kick, never a fabricated completion.
func (a *Adaptor) CompletionHead(reg uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "completion_head", obsv.Hex("reg", reg))
	defer sp.End()
	if a.opts.CompletionReap && a.ring != nil {
		// Ordering: anything pending in the ring (tag syncs, notifies)
		// must be published before the completion word is interpreted —
		// the SC reaps on the far side of the doorbell.
		if err := a.flushRingLocked(); err != nil {
			return 0, err
		}
		if w, err := a.space.ReadUint64(a.ring.buf.Base() + core.RingHdrCplOff); err == nil && w&core.RingCplValid != 0 {
			head := w &^ uint64(core.RingCplValid)
			if head >= a.lastCplHead {
				a.lastCplHead = head
				return head, nil
			}
			// Regressed completion word: a delayed or tampered writeback.
			// Fall through to the MMIO read rather than hand the driver a
			// head that moved backwards.
		}
	}
	cpl, err := a.readWithRetry(a.xpuBar + reg)
	if err != nil {
		return 0, err
	}
	head := binary.LittleEndian.Uint64(cpl.Payload)
	if head >= a.lastCplHead {
		a.lastCplHead = head
	}
	return head, nil
}

// DeviceRead performs a pass-through (A4) read of a device register
// through the SC window, with bounded retry on completion timeout and
// stale-completion suppression.
func (a *Adaptor) DeviceRead(reg uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Begin(obsv.TrackAdaptor, "device_read", obsv.Hex("reg", reg))
	defer sp.End()
	cpl, err := a.readWithRetry(a.xpuBar + reg)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(cpl.Payload), nil
}

// --- key rotation ------------------------------------------------------------

// RekeyThreshold is the remaining-counter level that triggers proactive
// rotation: rotating well before the 2³²-chunk exhaustion point keeps
// GCM IVs unique even with pipelined traffic in flight (§6).
const RekeyThreshold = 1 << 16

// RekeyStream rotates one protected stream: fresh material is sealed
// under the config stream, uploaded through the rekey window, and
// installed on both ends with a bumped epoch.
func (a *Adaptor) RekeyStream(stream string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rekeyStreamLocked(stream)
}

func (a *Adaptor) rekeyStreamLocked(stream string) error {
	if a.config == nil {
		return fmt.Errorf("adaptor: session not established")
	}
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	cmd := core.RekeyCommand{Stream: stream, Key: key, Nonce: nonce}
	sealed, err := a.sealWithRetry(a.config, cmd.Marshal(), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal rekey: %w", err)
	}
	if err := a.sendBlob(core.RingOpRekey, core.RegRekeyWindow, core.RegRekeyDoorbell, core.MarshalBlob(sealed)); err != nil {
		return err
	}
	// Publish before the TVM-side mirror rotates: the SC must never lag
	// an epoch behind its peer.
	if err := a.flushRingLocked(); err != nil {
		return err
	}
	a.obs.rekeys.Inc()
	a.obs.tracer.Instant(obsv.TrackAdaptor, "rekey", obsv.Str("stream", stream))
	a.hub.Eventf(obsv.EvRekey, "", "stream=%s", stream)

	// Mirror on the TVM side.
	if err := a.keys.Install(stream, key, nonce); err != nil {
		return err
	}
	switch stream {
	case core.StreamH2D:
		return a.h2d.Rekey(key, nonce)
	case core.StreamD2H:
		return a.d2h.Rekey(key, nonce)
	case core.StreamMMIO:
		return nil // raw MAC key; Install above is the whole rotation
	default:
		return fmt.Errorf("adaptor: stream %q not rotatable", stream)
	}
}

// H2DFence pins the H2D stream's current key epoch. Long-lived sealed
// state (a session's device-resident KV-cache) holds the fence across
// decode steps; a tripped fence marks a mid-session rekey — the
// resident ciphertext is still the fenced epoch's and stays valid in
// device memory, but nothing may be re-sealed under it.
func (a *Adaptor) H2DFence() secmem.Fence {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.h2d.Fence()
}

// StreamEpoch reports the named data stream's current key epoch.
func (a *Adaptor) StreamEpoch(stream string) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch stream {
	case core.StreamH2D:
		return a.h2d.Epoch()
	case core.StreamD2H:
		return a.d2h.Epoch()
	}
	return 0
}

// MaybeRekey rotates any data stream approaching IV exhaustion and
// reports which streams were rotated. Call it between transfers; the
// staging helpers call it implicitly.
func (a *Adaptor) MaybeRekey() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maybeRekeyLocked()
}

func (a *Adaptor) maybeRekeyLocked() ([]string, error) {
	var rotated []string
	if a.h2d != nil && a.h2d.Remaining() < RekeyThreshold {
		if err := a.rekeyStreamLocked(core.StreamH2D); err != nil {
			return rotated, err
		}
		rotated = append(rotated, core.StreamH2D)
	}
	if a.d2h != nil && a.d2h.Remaining() < RekeyThreshold {
		if err := a.rekeyStreamLocked(core.StreamD2H); err != nil {
			return rotated, err
		}
		rotated = append(rotated, core.StreamD2H)
	}
	return rotated, nil
}

// Teardown destroys the session: the SC wipes keys/regions and cleans
// the device; the TVM side zeroizes its own replicas.
func (a *Adaptor) Teardown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.teardownLocked()
}

func (a *Adaptor) teardownLocked() {
	a.obs.tracer.Instant(obsv.TrackAdaptor, "teardown")
	// Pending ring entries die with the session; teardown itself stays a
	// direct MMIO write so it cannot depend on ring health.
	a.ring = nil
	a.mmioWrite64(core.RegTeardown, 1)
	a.keys.DestroyAll()
	a.h2d, a.d2h, a.config = nil, nil, nil
	a.mmioSeq = 0
}
