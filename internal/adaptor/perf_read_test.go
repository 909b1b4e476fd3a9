package adaptor

import (
	"fmt"
	"runtime"
	"testing"

	"ccai/internal/core"
)

// readAllocCeiling is the hard allocs-per-collect budget for the 64 KiB
// D2H read path (ISSUE 9 satellite): CollectD2H assembles the sealed
// batch from per-stream scratch, decrypts straight into the result
// buffer, and must allocate essentially nothing beyond that
// caller-escaping buffer.
const readAllocCeiling = 24

// TestReadAllocBudget pins the steady-state allocation count of the
// D2H read path: per 64 KiB CollectD2H after warm-up, measured around
// the collect call alone (region setup and device writes excluded). It
// holds at every GOMAXPROCS; each rig is built after GOMAXPROCS is set.
func TestReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short harnesses")
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testReadAllocBudget(t)
		})
	}
}

func testReadAllocBudget(t *testing.T) {
	r, dev := newRig(t, Optimized())
	const size = 64 << 10
	result := make([]byte, size)
	for i := range result {
		result[i] = byte(i * 31)
	}

	cycle := func() uint64 {
		region, err := r.adaptor.PrepareD2H("res", size)
		if err != nil {
			t.Fatal(err)
		}
		dev.dmaWrite(region.Buf.Base(), result)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		got, err := r.adaptor.CollectD2H(region, size)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != result[0] || got[size-1] != result[size-1] {
			t.Fatal("collected result corrupt")
		}
		r.adaptor.ReleaseRegion(region)
		return ms1.Mallocs - ms0.Mallocs
	}

	cycle() // warm-up: scratch slices sized, pools primed
	const iters = 8
	var total uint64
	for i := 0; i < iters; i++ {
		total += cycle()
	}
	perCollect := total / iters
	t.Logf("D2H read path: %d allocs per 64 KiB CollectD2H (ceiling %d, %d chunks)",
		perCollect, readAllocCeiling, size/core.ChunkSize)
	if perCollect > readAllocCeiling {
		t.Fatalf("CollectD2H allocates %d/op for 64 KiB; budget is %d", perCollect, readAllocCeiling)
	}
}
