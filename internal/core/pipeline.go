package core

import (
	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// This file is the SC data-plane pipeline (DESIGN.md §15): the
// decrypt/DMA overlap machinery that turns the serial
// fetch→decrypt→serve / receive→seal→store chunk loops into the mirror
// image of the Adaptor's StageH2D seal-vs-submit pipeline.
//
// H2D: while the device consumes span i's completion DMA, the SC
// speculatively fetches and batch-decrypts span i+1 into a one-entry
// plaintext cache (spanCache). The device's strictly sequential
// MaxReadReq gulps make the next span perfectly predictable; a cache
// hit serves plaintext whose crypto already ran under the previous
// span's DMA shadow, so the steady-state per-span cost is
// max(crypto, DMA) plus one pipeline fill, not their sum.
//
// D2H: device writes are accumulated per region (writeSpan) and sealed
// as one engine batch when the span fills, the chunk sequence breaks,
// or the region completes. The batch runs through SealBatchStream, so
// chunk i's ciphertext DMA to host memory is issued from the emit
// callback while the engine is already sealing chunks > i — the same
// overlap, pointed the other way.
//
// Both sides are speculation-safe: a prefetch that cannot complete
// cleanly (missing tag, stale counter, corrupt fetch) backs out
// without consuming tag records or counting failures, and the demand
// path then runs the full acceptance ladder exactly as before.

// spanChunks is the pipeline granularity in chunks: one device read
// gulp (MaxReadReq) worth of MaxPayload chunks, for both the H2D
// prefetch spans and the D2H write-burst spans.
const spanChunks = pcie.MaxReadReq / ChunkSize

// spanScratch is the reusable per-span bookkeeping for the H2D batch
// paths. OpenBatchInto documents that the sealed records are taken by
// value, so the views may be rebuilt in place for every span.
type spanScratch struct {
	sealed [spanChunks]secmem.Sealed
	aads   [spanChunks][]byte
	aadBuf [8 * spanChunks]byte
	recs   [spanChunks]TagRecord
	have   [spanChunks]bool
}

// takeScratch grabs a span scratch from the pool, or allocates a
// fresh one if both slots are in use (re-entrant span handling).
func (c *Controller) takeScratch() *spanScratch {
	var s *spanScratch
	c.mu.Lock()
	for i, v := range c.scratchPool {
		if v != nil {
			s, c.scratchPool[i] = v, nil
			break
		}
	}
	c.mu.Unlock()
	if s == nil {
		s = new(spanScratch)
	}
	return s
}

// putScratch returns a span scratch, dropping payload references so
// the scratch does not pin completed span buffers.
func (c *Controller) putScratch(s *spanScratch) {
	for i := range s.sealed {
		s.sealed[i].Ciphertext = nil
	}
	c.mu.Lock()
	for i := range c.scratchPool {
		if c.scratchPool[i] == nil {
			c.scratchPool[i] = s
			break
		}
	}
	c.mu.Unlock()
}

// --- H2D decrypt-ahead ------------------------------------------------------

// spanCache is the one-entry plaintext cache behind the H2D overlap:
// the next span's decrypted bytes, keyed by exactly the (region, addr,
// length) triple the device must request for them.
type spanCache struct {
	valid  bool
	region uint32
	addr   uint64
	length uint32
	pt     []byte // slab-carved; ownership transfers to the hit's completion
}

// takeCachedSpan serves a span read from the decrypt-ahead cache. On a
// hit the plaintext's ownership moves to the caller (it becomes the
// completion payload) and the entry clears.
func (c *Controller) takeCachedSpan(region uint32, addr uint64, length uint32) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pf.valid || c.pf.region != region || c.pf.addr != addr || c.pf.length != length {
		return nil, false
	}
	pt := c.pf.pt
	c.pf = spanCache{}
	c.stats.PrefetchHits++
	return pt, true
}

// installCachedSpan publishes a prefetched span, zeroizing any entry
// it displaces (the cache holds decrypted secrets in SC-local memory).
func (c *Controller) installCachedSpan(region uint32, addr uint64, pt []byte) {
	c.mu.Lock()
	old := c.pf.pt
	c.pf = spanCache{valid: true, region: region, addr: addr, length: uint32(len(pt)), pt: pt}
	c.mu.Unlock()
	c.retireCachedPt(old)
}

// dropSpanCache invalidates the decrypt-ahead cache if it belongs to
// region (descriptor release or reinstall); region == ^0 drops any
// entry (rekey, teardown). The orphaned plaintext is zeroized.
func (c *Controller) dropSpanCache(region uint32) {
	c.mu.Lock()
	var old []byte
	if c.pf.valid && (region == ^uint32(0) || c.pf.region == region) {
		old = c.pf.pt
		c.pf = spanCache{}
	}
	c.mu.Unlock()
	c.retireCachedPt(old)
}

// retireCachedPt zeroizes an evicted decrypt-ahead plaintext and, when
// it provably came from the arena (payloadBuf carved it there, and the
// sticky Untapped gate cannot have flipped back), returns it to the
// pool instead of leaving it for the GC.
func (c *Controller) retireCachedPt(b []byte) {
	if b == nil {
		return
	}
	if c.recycleOn(c.internal) {
		arena.PutZero(b)
		return
	}
	zero(b)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// payloadBuf carves an outbound payload (completion plaintext, MWr
// ciphertext): from the shared arena when the platform armed recycling
// and no tap has ever observed bus — the terminal consumer returns the
// buffer after copying — else from the never-reused slab, which is the
// only safe source once a tap may retain routed packets.
func (c *Controller) payloadBuf(n int, bus *pcie.Bus) []byte {
	if c.recycle && bus.Untapped() {
		return arena.Get(n)
	}
	return c.slab.Take(n)
}

// recycleOn reports whether payload buffers that crossed bus may be
// returned to the arena now. Sound only AFTER the route completed: a
// tap installed later never saw the packet (Bus.Untapped is sticky).
func (c *Controller) recycleOn(bus *pcie.Bus) bool {
	return c.recycle && bus.Untapped()
}

// prefetchSpan speculatively fetches and decrypts the span at addr —
// the read the device is predicted to issue next — into the cache.
// Every early return is silent: speculation must not consume tag
// records, advance failure counters, or reject anything; the demand
// path owns the acceptance ladder.
func (c *Controller) prefetchSpan(desc Descriptor, addr uint64) {
	end := desc.Base + desc.Len
	if addr < desc.Base || addr >= end {
		return
	}
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	if (addr-desc.Base)%cs != 0 {
		return
	}
	n := uint64(pcie.MaxReadReq)
	if end-addr < n {
		n = end - addr
	}
	first := uint32((addr - desc.Base) / cs)
	k := int((n + cs - 1) / cs)
	if k > spanChunks {
		return
	}
	// Probe before committing: if any tag is still in flight the span
	// is not ready, and taking a partial set would steal records the
	// demand path needs.
	if !c.tags.HasSpan(StreamH2D, desc.FirstCounter+first, k) {
		return
	}
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		return
	}
	req := c.pkts.MemRead(c.id, addr, uint32(n), 0)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) {
		return
	}
	sc := c.takeScratch()
	defer c.putScratch(sc)
	for i := 0; i < k; i++ {
		rec, ok := c.tags.Take(StreamH2D, desc.FirstCounter+first+uint32(i))
		if !ok {
			// Raced away since the probe; put back what was taken.
			for j := 0; j < i; j++ {
				c.tags.Enqueue(sc.recs[j])
			}
			return
		}
		sc.recs[i] = rec
	}
	pt := c.payloadBuf(int(n), c.internal)
	for i := 0; i < k; i++ {
		chunk := first + uint32(i)
		lo := uint64(i) * cs
		hi := lo + cs
		if hi > n {
			hi = n
		}
		sc.sealed[i] = secmem.Sealed{
			Counter:    desc.FirstCounter + chunk,
			Epoch:      sc.recs[i].Epoch,
			Ciphertext: cpl.Payload[lo:hi],
			Tag:        sc.recs[i].Tag,
		}
		ab := sc.aadBuf[8*i : 8*i+8 : 8*i+8]
		desc.PutAAD((*[8]byte)(ab), chunk)
		sc.aads[i] = ab
	}
	err = stream.OpenBatchInto(pt, sc.sealed[:k], sc.aads[:k])
	if c.recycleOn(c.hostBus) {
		// The bounce fetch came from the host bridge's arena pool and its
		// ciphertext has been consumed either way (public bytes: Put).
		arena.Put(cpl.Payload)
	}
	if err != nil {
		// Back out: the records return to the queue and the demand read
		// re-runs the full ladder (per-chunk fallback, fail-closed).
		for i := 0; i < k; i++ {
			c.tags.Enqueue(sc.recs[i])
		}
		return
	}
	c.mu.Lock()
	region := c.verifiedFor(desc.ID, chunkCount(desc))
	for i := 0; i < k; i++ {
		region.put(first+uint32(i), sc.recs[i])
	}
	c.stats.DecryptedChunks += uint64(k)
	c.stats.PrefetchedChunks += uint64(k)
	c.mu.Unlock()
	c.obs.decrypted.Add(uint64(k))
	c.installCachedSpan(desc.ID, addr, pt)
}

// --- D2H write-span batching ------------------------------------------------

// writeSpan accumulates consecutive device D2H plaintext chunks of one
// region. The payload slices come straight from the device's MWr
// packets; the device stages DMA payloads in never-reused slab memory
// (xpu.dmaWrite), so retaining them until the flush one Handle call
// later is safe and copy-free.
type writeSpan struct {
	start  uint32 // chunk index of pts[0]
	next   uint32 // chunk index that extends the span
	pts    [][]byte
	ptsArr [spanChunks][]byte
}

// needsSpanFlush reports whether the region's pending span cannot
// absorb chunk — a sequence break or a full span — so it must seal
// before the chunk is staged.
func (c *Controller) needsSpanFlush(region uint32, chunk uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := c.wspans[region]
	return span != nil && (chunk != span.next || len(span.pts) == spanChunks)
}

// stageWrite buffers one device D2H chunk and reports whether the span
// must flush now. The caller has already flushed any non-extendable
// span (needsSpanFlush), so the pending span — if any — continues at
// exactly this chunk.
func (c *Controller) stageWrite(desc Descriptor, chunk uint32, payload []byte) (flush bool) {
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	total := (desc.Len + cs - 1) / cs
	c.mu.Lock()
	span := c.wspans[desc.ID]
	if span == nil {
		if n := len(c.wsFree); n > 0 {
			span = c.wsFree[n-1]
			c.wsFree = c.wsFree[:n-1]
		} else {
			span = new(writeSpan)
		}
		span.start, span.next = chunk, chunk
		span.pts = span.ptsArr[:0]
		c.wspans[desc.ID] = span
	}
	span.pts = append(span.pts, payload)
	span.next = chunk + 1
	buffered := c.d2hChunks[desc.ID] + uint64(len(span.pts))
	// Flush when the span fills, when the region completes, and at the
	// metadata publish cadence — the progress counter must never claim
	// chunks whose ciphertext and tags are still buffered.
	flush = len(span.pts) == spanChunks ||
		buffered >= total ||
		buffered%metaPublishEvery == 0
	c.mu.Unlock()
	return flush
}

// flushWriteSpan seals the region's buffered chunks as one batch and
// moves them to host memory. SealBatchStream delivers sealed chunks in
// order to the emit callback, which routes chunk i's ciphertext DMA
// and tag deposit while the engine is already sealing chunks > i —
// the D2H half of the decrypt/DMA overlap. Returns false only when the
// batch failed (engine fault, missing stream): the buffered chunks are
// dropped and the caller fails closed.
func (c *Controller) flushWriteSpan(desc Descriptor) bool {
	c.mu.Lock()
	span := c.wspans[desc.ID]
	if span == nil || len(span.pts) == 0 {
		c.mu.Unlock()
		return true
	}
	delete(c.wspans, desc.ID)
	c.mu.Unlock()

	stream, err := c.params.Stream(StreamD2H)
	if err != nil {
		return false
	}
	k := len(span.pts)
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	base := desc.Base + uint64(span.start)*cs
	// The AAD views live in the controller's reusable span scratch —
	// local arrays here escape through the emit closure and cost a heap
	// allocation per flush.
	sc := c.takeScratch()
	defer c.putScratch(sc)
	for i := 0; i < k; i++ {
		ab := sc.aadBuf[8*i : 8*i+8 : 8*i+8]
		desc.PutAAD((*[8]byte)(ab), span.start+uint32(i))
		sc.aads[i] = ab
	}
	err = stream.SealBatchStream(span.pts, sc.aads[:k], func(i int, chunk *secmem.Sealed) error {
		// The sealed ciphertext is engine-internal memory reclaimed when
		// emit returns; the copy into a buffer the host bridge cannot
		// still be sharing (arena when the recycling loop is closed,
		// never-recycled slab otherwise) is what makes the packet payload
		// safe to route.
		ctBuf := c.payloadBuf(len(chunk.Ciphertext), c.hostBus)
		copy(ctBuf, chunk.Ciphertext)
		c.hostBus.Route(c.pkts.MemWrite(c.id, base+uint64(i)*cs, ctBuf))
		if c.recycleOn(c.hostBus) {
			arena.Put(ctBuf) // ciphertext: public bytes
		}
		rec := TagRecord{Stream: StreamD2H, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag}
		c.depositTag(desc, span.start+uint32(i), rec)
		return nil
	})
	// The staged plaintext came from the device's arena-backed MWr
	// staging whenever the internal bus is still untapped (the platform
	// wires both ends of that contract); the SC is its last holder.
	if c.recycleOn(c.internal) {
		for _, pt := range span.pts {
			arena.PutZero(pt) // device plaintext
		}
	}
	c.putSpan(span)
	if err != nil {
		return false
	}
	c.mu.Lock()
	c.stats.BatchedD2HSpans++
	c.mu.Unlock()
	c.obs.encrypted.Add(uint64(k))
	return true
}

// putSpan drops a flushed span's payload references and returns the
// shell to the freelist so the next stageWrite reuses it.
func (c *Controller) putSpan(span *writeSpan) {
	for i := range span.pts {
		span.pts[i] = nil
	}
	span.pts = nil
	c.mu.Lock()
	if len(c.wsFree) < 4 {
		c.wsFree = append(c.wsFree, span)
	}
	c.mu.Unlock()
}

// dropWriteSpan discards a region's buffered, unsealed chunks
// (descriptor release or teardown). When the recycling loop is closed
// the SC is the plaintext's last holder and returns it zeroed;
// otherwise the slices belong to the device's never-reused slab and
// dropping the references is all the SC may do.
func (c *Controller) dropWriteSpan(region uint32) {
	c.mu.Lock()
	span := c.wspans[region]
	delete(c.wspans, region)
	c.mu.Unlock()
	c.recyclePts(span)
}

// dropAllWriteSpans resets the D2H pipeline (teardown).
func (c *Controller) dropAllWriteSpans() {
	c.mu.Lock()
	spans := c.wspans
	c.wspans = make(map[uint32]*writeSpan)
	c.mu.Unlock()
	for _, span := range spans {
		c.recyclePts(span)
	}
}

// recyclePts returns a dropped span's staged device plaintext to the
// arena when that is provably safe (see dropWriteSpan), then retires
// the shell to the freelist.
func (c *Controller) recyclePts(span *writeSpan) {
	if span == nil {
		return
	}
	if c.recycleOn(c.internal) {
		for _, pt := range span.pts {
			arena.PutZero(pt)
		}
	}
	c.putSpan(span)
}
