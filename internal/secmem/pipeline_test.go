package secmem

// Tests for the streaming seal pipeline and the batch-open-into path —
// the DESIGN.md §10 datapath. The properties pinned here are the ones
// the pipeline must not trade away for speed: in-order emit, IV
// safety across transient retries, and fail-closed zeroing of
// partially decrypted output.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestSealBatchStreamInOrder asserts emit sees chunks strictly in
// submission order with contiguous counters, and that the bytes
// delivered are exactly what a sequence of single-chunk Seal calls
// would produce — the batch path is an allocation optimization, never
// a protocol-visible one. Each subtest also seals the same batch
// through the pooled SealBatch at that width, which must agree byte
// for byte with the serial stream path.
func TestSealBatchStreamInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			serial, _ := newPair(t)
			pooled, _ := newPair(t)
			stream, _ := newPair(t)
			key, nonce := FreshKey(), FreshNonce()
			for _, s := range []*Stream{serial, pooled, stream} {
				if err := s.Rekey(key, nonce); err != nil {
					t.Fatal(err)
				}
			}
			pts, aads := chunkset(33, 96)

			var want []*Sealed
			for i := range pts {
				s, err := serial.Seal(pts[i], aads[i])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, s)
			}
			batch, err := pooled.SealBatch(pts, aads, NewPool(w))
			if err != nil {
				t.Fatal(err)
			}

			next := 0
			err = stream.SealBatchStream(pts, aads, func(i int, chunk *Sealed) error {
				if i != next {
					t.Fatalf("emit order broken: got chunk %d, want %d", i, next)
				}
				next++
				if chunk.Counter != want[i].Counter || chunk.Epoch != want[i].Epoch {
					t.Fatalf("chunk %d: counter/epoch diverge from serial seal", i)
				}
				if !bytes.Equal(chunk.Ciphertext, want[i].Ciphertext) || chunk.Tag != want[i].Tag {
					t.Fatalf("chunk %d: bytes diverge from serial seal", i)
				}
				if chunk.Counter != batch[i].Counter || !bytes.Equal(chunk.Ciphertext, batch[i].Ciphertext) || chunk.Tag != batch[i].Tag {
					t.Fatalf("chunk %d: bytes diverge from the %d-worker SealBatch", i, w)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != len(pts) {
				t.Fatalf("emit ran %d times, want %d", next, len(pts))
			}
			if stream.SendCounter() != serial.SendCounter() || stream.SendCounter() != pooled.SendCounter() {
				t.Fatalf("counters diverge: %d vs %d vs %d", stream.SendCounter(), serial.SendCounter(), pooled.SendCounter())
			}
		})
	}
}

// TestSealBatchStreamEmitCopiesSurvive verifies the documented arena
// contract: the Ciphertext handed to emit is only valid inside emit,
// so a consumer that copies (like the Adaptor's bounce-buffer write)
// must end up with chunks that all still authenticate after the
// pipeline — pooled-buffer reuse during the run must never corrupt an
// earlier chunk's copy.
func TestSealBatchStreamEmitCopiesSurvive(t *testing.T) {
	tx, rx := newPair(t)
	pts, aads := chunkset(25, 256)

	sealed := make([]Sealed, 0, len(pts))
	err := tx.SealBatchStream(pts, aads, func(i int, chunk *Sealed) error {
		c := *chunk
		c.Ciphertext = append([]byte(nil), chunk.Ciphertext...)
		sealed = append(sealed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 25*256)
	if err := rx.OpenBatchInto(dst, sealed, aads); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !bytes.Equal(dst[i*256:(i+1)*256], pts[i]) {
			t.Fatalf("chunk %d corrupted by in-flight buffer reuse", i)
		}
	}
}

// TestSealBatchStreamTransientConsumesNoCounters: the fault hook fires
// before any counter is reserved, so a transient abort leaves the
// stream exactly where it was and the retry reuses the identical IV
// range — the invariant that makes mid-pipeline retry safe.
func TestSealBatchStreamTransientConsumesNoCounters(t *testing.T) {
	tx, rx := newPair(t)
	fail := true
	tx.SetFaultHook(func(op string) error {
		if op == "seal" && fail {
			fail = false
			return ErrTransient
		}
		return nil
	})
	pts, aads := chunkset(6, 64)

	before := tx.SendCounter()
	emits := 0
	err := tx.SealBatchStream(pts, aads, func(i int, chunk *Sealed) error {
		emits++
		return nil
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v, want ErrTransient", err)
	}
	if emits != 0 {
		t.Fatalf("aborted pipeline still emitted %d chunks", emits)
	}
	if tx.SendCounter() != before {
		t.Fatalf("transient abort consumed counters: %d -> %d", before, tx.SendCounter())
	}

	sealed := make([]Sealed, 0, len(pts))
	err = tx.SealBatchStream(pts, aads, func(i int, chunk *Sealed) error {
		c := *chunk
		c.Ciphertext = append([]byte(nil), chunk.Ciphertext...)
		sealed = append(sealed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sealed[0].Counter != before+1 {
		t.Fatalf("retry started at counter %d, want %d", sealed[0].Counter, before+1)
	}
	dst := make([]byte, 6*64)
	if err := rx.OpenBatchInto(dst, sealed, aads); err != nil {
		t.Fatal(err)
	}
}

// TestSealBatchStreamEmitErrorAborts: once emit has run, the batch is
// not retryable; an emit error must surface as-is and stop the
// pipeline without emitting further chunks.
func TestSealBatchStreamEmitErrorAborts(t *testing.T) {
	tx, _ := newPair(t)
	pts, aads := chunkset(16, 64)
	boom := errors.New("bounce buffer revoked")
	last := -1
	err := tx.SealBatchStream(pts, aads, func(i int, chunk *Sealed) error {
		last = i
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if last != 3 {
		t.Fatalf("pipeline emitted chunk %d after the failing one", last)
	}
}

// TestOpenBatchIntoZeroesOnAuthFailure: when any chunk fails
// authentication, every plaintext byte the batch already produced —
// including chunks that verified fine — must be zeroed before the
// error returns. Partial plaintext never survives in caller-visible
// memory. Each subtest seals the batch with the pooled SealBatch at
// that width and checks that the pooled OpenBatch rejects the same
// corrupted batch without returning plaintext.
func TestOpenBatchIntoZeroesOnAuthFailure(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			tx, rx := newPair(t)
			rxPooled, _ := newPair(t)
			key, nonce := FreshKey(), FreshNonce()
			for _, s := range []*Stream{tx, rx, rxPooled} {
				if err := s.Rekey(key, nonce); err != nil {
					t.Fatal(err)
				}
			}
			pts, aads := chunkset(9, 128)
			sealedPtrs, err := tx.SealBatch(pts, aads, NewPool(w))
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt a late chunk so earlier ones decrypt first.
			sealedPtrs[7].Ciphertext = append([]byte(nil), sealedPtrs[7].Ciphertext...)
			sealedPtrs[7].Ciphertext[0] ^= 1
			sealed := make([]Sealed, len(sealedPtrs))
			for i, s := range sealedPtrs {
				sealed[i] = *s
			}

			dst := make([]byte, 9*128)
			for i := range dst {
				dst[i] = 0xEE // sentinel: must not survive as plaintext
			}
			if err := rx.OpenBatchInto(dst, sealed, aads); !errors.Is(err, ErrAuth) {
				t.Fatalf("got %v, want ErrAuth", err)
			}
			for i, v := range dst {
				if v != 0 {
					t.Fatalf("byte %d = %#x after auth failure; span not zeroed", i, v)
				}
			}
			if out, err := rxPooled.OpenBatch(sealedPtrs, aads, NewPool(w)); !errors.Is(err, ErrAuth) || out != nil {
				t.Fatalf("pooled OpenBatch: got %d chunks, %v; want none and ErrAuth", len(out), err)
			}
		})
	}
}
