package adaptor

// Tests for the streaming staging pipeline (DESIGN.md §10) as seen
// from the wire: tag uploads must follow chunk order, and span reads
// must reassemble the staged plaintext.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
)

// tagWindowCounters parses every H2D tag record seen in RegTagWindow
// writes, in wire order.
type tagWindowTap struct {
	mu       sync.Mutex
	counters []uint32
}

func (tw *tagWindowTap) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MWr && p.Address == scBar+core.RegTagWindow {
		tw.mu.Lock()
		for off := 0; off+core.TagRecordSize <= len(p.Payload); off += core.TagRecordSize {
			tw.counters = append(tw.counters, binary.LittleEndian.Uint32(p.Payload[off+4:]))
		}
		tw.mu.Unlock()
	}
	return p
}

// TestStageH2DTagOrderUnderParallelCrypto taps the host bus while
// `workers` goroutines each StageH2D a 64 KiB region at once, so
// chunk sealing runs on several caller goroutines concurrently, and
// asserts the tag counters hit the wire strictly ascending with each
// region's records forming one contiguous run from its FirstCounter:
// the emit stage must post tags in chunk order before anything
// escapes the Adaptor, and concurrent callers must never interleave
// their uploads. A reordered tag upload would break the SC's
// contiguous tag-span batching and, worse, decouple tag position from
// chunk identity.
func TestStageH2DTagOrderUnderParallelCrypto(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r, _ := newRig(t, Options{BatchTags: true})
			tap := &tagWindowTap{}
			r.host.AddTap(tap)

			data := make([]byte, 64<<10) // 256 chunks per region
			for i := range data {
				data[i] = byte(i * 31)
			}
			regs := make([]*Region, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					regs[w], errs[w] = r.adaptor.StageH2D(fmt.Sprintf("ordered-%d", w), data)
				}()
			}
			wg.Wait()
			r.host.ClearTaps()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			tap.mu.Lock()
			counters := append([]uint32(nil), tap.counters...)
			tap.mu.Unlock()
			nChunks := (len(data) + core.ChunkSize - 1) / core.ChunkSize
			if len(counters) != workers*nChunks {
				t.Fatalf("saw %d tag records on the wire, want %d", len(counters), workers*nChunks)
			}
			for i := 1; i < len(counters); i++ {
				if counters[i] <= counters[i-1] {
					t.Fatalf("tag %d carries counter %d after %d (reordered upload)", i, counters[i], counters[i-1])
				}
			}
			for w, reg := range regs {
				first := reg.Desc.FirstCounter
				at := slices.Index(counters, first)
				if at < 0 || at+nChunks > len(counters) {
					t.Fatalf("region %d: first counter %d not followed by %d records on the wire", w, first, nChunks)
				}
				for i, c := range counters[at : at+nChunks] {
					if c != first+uint32(i) {
						t.Fatalf("region %d tag %d carries counter %d, want %d (reordered upload)", w, i, c, first+uint32(i))
					}
				}
			}
		})
	}
}

// TestStagedRegionSpanReadable drives the full new read path: a
// staged 64 KiB region consumed by the stub device in MaxReadReq-sized
// span reads must come back as the original plaintext, chunk batching
// and all.
func TestStagedRegionSpanReadable(t *testing.T) {
	r, dev := newRig(t, Options{BatchTags: true})
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i ^ (i >> 8))
	}
	reg, err := r.adaptor.StageH2D("span", data)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(data))
	for off := 0; off < len(data); off += pcie.MaxReadReq {
		n := pcie.MaxReadReq
		if len(data)-off < n {
			n = len(data) - off
		}
		cpl := dev.up(pcie.NewMemRead(dev.id, reg.Desc.Base+uint64(off), uint32(n), 0))
		if cpl == nil || cpl.Status != pcie.CplSuccess {
			t.Fatalf("span read at %d rejected", off)
		}
		got = append(got, cpl.Payload...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("span reads reassembled wrong plaintext")
	}
	if n := r.sc.Stats().DecryptedChunks; n != 256 {
		t.Fatalf("DecryptedChunks = %d, want 256", n)
	}
}

// BenchmarkStageH2D64KiB times the hot staging path in isolation:
// seal 256 chunks, write the bounce buffer, upload tags. allocs/op is
// the number the arena work targets — the CI gate tracks it via
// `ccai-bench -compare`.
func BenchmarkStageH2D64KiB(b *testing.B) {
	r, _ := newRig(b, Optimized())
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := r.adaptor.StageH2D("bench", data)
		if err != nil {
			b.Fatal(err)
		}
		r.adaptor.ReleaseRegion(reg)
	}
}
