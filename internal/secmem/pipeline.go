package secmem

import (
	"encoding/binary"
	"fmt"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// SealBatchStream encrypts len(pts) chunks and delivers them to emit
// strictly in submission order: chunk i is sealed, handed to emit, and
// its buffer reused for chunk i+1, so the caller's per-chunk work
// (bounce-buffer writes, tag posting) interleaves with crypto instead
// of waiting for a whole "seal all, then write all" barrier — the
// streaming pipeline of DESIGN.md §10. Crypto runs on the calling
// goroutine; parallelism comes from one pipeline per tenant, and the
// paper's §5 extra-crypto-threads optimization is priced by the
// virtual-time cost model, not emulated here.
//
// Counter reservation and fault semantics are identical to SealBatch:
// the fault hook is consulted once per chunk before any counter is
// reserved, so an ErrTransient return consumes no stream state and the
// whole batch may be retried with the same IVs. Once emit has run for
// any chunk the batch is no longer retryable — an emit error aborts
// the remaining chunks and is returned as-is, with the consumed
// counters abandoned (the recovery ladder's repost/teardown logic owns
// that case).
//
// The Sealed passed to emit has its Ciphertext backed by pooled arena
// memory that is reused the moment emit returns: emit must copy any
// bytes it keeps and must not retain the slice or the *Sealed.
func (s *Stream) SealBatchStream(pts, aads [][]byte, emit func(i int, chunk *Sealed) error) error {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d plaintexts but %d aads", n, len(aads))
	}

	s.mu.Lock()
	if s.fault != nil {
		for range pts {
			if err := s.fault("seal"); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	if uint64(s.sendCtr)+uint64(n) > uint64(^uint32(0)) {
		s.mu.Unlock()
		return ErrIVExhausted
	}
	base := s.sendCtr
	s.sendCtr += uint32(n)
	aead, nb, epoch := s.aead, s.nonceBase, s.epoch
	if s.ivAudit != nil {
		for i := 0; i < n; i++ {
			s.ivAudit(epoch, base+1+uint32(i))
		}
	}
	o := s.obs
	var total int64
	maxLen := 0
	for _, pt := range pts {
		total += int64(len(pt))
		maxLen = max(maxLen, len(pt))
	}
	s.mu.Unlock()

	var sp obsv.ActiveSpan
	if o != nil {
		sp = o.tracer.Begin(o.track, "seal_stream",
			obsv.Str("stream", o.name), obsv.I64("bytes", total), obsv.I64("chunks", int64(n)))
	}

	// One arena buffer sized for the largest chunk serves the whole
	// batch: emit copies anything it keeps, so the buffer is free for
	// the next chunk the moment emit returns.
	var iv [NonceSize]byte
	buf := arena.Get(maxLen + TagSize)
	var chunk Sealed
	var err error
	for i := 0; i < n && err == nil; i++ {
		c := base + 1 + uint32(i)
		putNonce(&iv, nb, c)
		var aad []byte
		if aads != nil {
			aad = aads[i]
		}
		ct := aead.Seal(buf[:0], iv[:], pts[i], aad)
		k := len(ct) - TagSize
		chunk = Sealed{Counter: c, Epoch: epoch, Ciphertext: ct[:k]}
		copy(chunk.Tag[:], ct[k:])
		err = emit(i, &chunk)
	}
	arena.Put(buf) // ciphertext only: public bytes

	if o != nil {
		sp.Attr(obsv.U64("ctr_first", uint64(base+1)), obsv.U64("epoch", uint64(epoch)))
		sp.End()
		if err == nil {
			o.sealOps.Add(uint64(n))
			o.sealBytes.Add(uint64(total))
		}
	}
	return err
}

// OpenBatchInto authenticates and decrypts a batch of chunks directly
// into dst, which must hold at least the sum of the ciphertext
// lengths. Chunk i's plaintext lands at the prefix-sum offset of the
// preceding ciphertext lengths, so a region reassembles contiguously
// with zero copies. Validation, watermark and fault semantics match
// OpenBatch (the sealed records are taken by value so the caller can
// reuse a scratch slice); chunks are opened in order on the calling
// goroutine and the first authentication failure ends the batch.
//
// On any authentication failure the written span of dst is zeroed
// before returning ErrAuth — partial plaintext, including chunks that
// verified before the failing one, never survives in caller-visible
// memory (fail-closed discipline, DESIGN.md §10).
func (s *Stream) OpenBatchInto(dst []byte, sealed []Sealed, aads [][]byte) error {
	n := len(sealed)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d chunks but %d aads", n, len(aads))
	}
	total, maxCt := 0, 0
	for i := range sealed {
		total += len(sealed[i].Ciphertext)
		maxCt = max(maxCt, len(sealed[i].Ciphertext))
	}
	if total > len(dst) {
		return fmt.Errorf("secmem: dst holds %d bytes, batch needs %d", len(dst), total)
	}
	// batchMu keeps two concurrent batch opens from interleaving their
	// validate/advance windows. Lock order: batchMu, then mu.
	s.batchMu.Lock()
	defer s.batchMu.Unlock()

	s.mu.Lock()
	if s.fault != nil {
		for range sealed {
			if err := s.fault("open"); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	prev := s.recvCtr
	for i := range sealed {
		c := &sealed[i]
		if c.Epoch != s.epoch {
			s.obsReplay()
			s.mu.Unlock()
			return fmt.Errorf("%w: epoch %d vs %d", ErrReplay, c.Epoch, s.epoch)
		}
		if c.Counter <= prev {
			s.obsReplay()
			s.mu.Unlock()
			return fmt.Errorf("%w: chunk %d counter %d after %d", ErrReplay, i, c.Counter, prev)
		}
		prev = c.Counter
	}
	aead, nb, epoch := s.aead, s.nonceBase, s.epoch
	o := s.obs
	s.mu.Unlock()

	// One scratch carries ciphertext||tag plus the IV at its tail for
	// every chunk — Open only reads from it while writing into dst, so
	// reuse across chunks is safe.
	buf := arena.Get(maxCt + TagSize + NonceSize)
	good, off := 0, 0
	for ; good < n; good++ {
		c := &sealed[good]
		ctLen := len(c.Ciphertext)
		copy(buf, c.Ciphertext)
		copy(buf[ctLen:], c.Tag[:])
		iv := buf[ctLen+TagSize : ctLen+TagSize+NonceSize]
		copy(iv, nb[:])
		binary.BigEndian.PutUint32(iv[nonceBase:], c.Counter)
		var aad []byte
		if aads != nil {
			aad = aads[good]
		}
		if _, err := aead.Open(dst[off:off:off+ctLen], iv, buf[:ctLen+TagSize], aad); err != nil {
			break
		}
		off += ctLen
	}
	arena.Put(buf) // scratch held ciphertext||tag||iv: public bytes

	// Advance the watermark through the contiguous success prefix.
	s.mu.Lock()
	if s.epoch == epoch && good > 0 {
		s.recvCtr = sealed[good-1].Counter
	}
	s.mu.Unlock()

	if good < n {
		clear(dst[:total])
		if o != nil {
			o.authFail.Inc()
		}
		return ErrAuth
	}
	if o != nil {
		o.openOps.Add(uint64(n))
		o.openBytes.Add(uint64(total))
	}
	return nil
}
