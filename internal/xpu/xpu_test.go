package xpu

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"ccai/internal/mem"
	"ccai/internal/pcie"
)

// hostHarness wires a device directly to a host memory space (no
// PCIe-SC), standing in for a vanilla deployment.
type hostHarness struct {
	space *mem.Space
	dev   *Device
	ring  *mem.Buffer
	tail  uint64
	msi   []uint32
}

func newHarness(t *testing.T, p Profile) *hostHarness {
	t.Helper()
	s := mem.NewSpace()
	if err := s.AddRegion("host", 0x1000_0000, 16<<20); err != nil {
		t.Fatal(err)
	}
	ring, err := s.Alloc("host", "cmdring", 64*CmdSize)
	if err != nil {
		t.Fatal(err)
	}
	h := &hostHarness{space: s, ring: ring}
	h.dev = NewDevice(p, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	h.dev.SetUpstream(func(pkt *pcie.Packet) *pcie.Packet {
		switch pkt.Kind {
		case pcie.MRd:
			data, err := s.Read(pkt.Address, int64(pkt.Length))
			if err != nil {
				return pcie.NewCompletion(pkt, 0, pcie.CplUR, nil)
			}
			return pcie.NewCompletion(pkt, 0, pcie.CplSuccess, data)
		case pcie.MWr:
			if pkt.Address == 0xfee0_0000 { // MSI window
				h.msi = append(h.msi, binary.LittleEndian.Uint32(pkt.Payload))
				return nil
			}
			_ = s.Write(pkt.Address, pkt.Payload)
			return nil
		}
		return nil
	})
	// Driver bring-up: program ring and MSI.
	h.mmio64(RegCmdBase, ring.Base())
	h.mmio64(RegCmdSize, 64)
	h.mmio64(RegMSIAddr, 0xfee0_0000)
	h.mmio64(RegMSIData, 0x41)
	return h
}

func (h *hostHarness) mmio64(off uint64, v uint64) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	h.dev.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+off, buf))
}

func (h *hostHarness) mmioRead64(off uint64) uint64 {
	cpl := h.dev.Handle(pcie.NewMemRead(pcie.MakeID(0, 0, 0), 0xf000_0000+off, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		return ^uint64(0)
	}
	return binary.LittleEndian.Uint64(cpl.Payload)
}

func (h *hostHarness) submit(t *testing.T, cmds ...Command) {
	t.Helper()
	for _, c := range cmds {
		addr := h.ring.Base() + (h.tail%64)*CmdSize
		if err := h.space.Write(addr, c.Marshal()); err != nil {
			t.Fatal(err)
		}
		h.tail++
	}
	h.mmio64(RegCmdTail, h.tail)
	h.mmio64(RegDoorbell, 1)
}

func TestProfilesFleet(t *testing.T) {
	fleet := Fleet()
	if len(fleet) != 5 {
		t.Fatalf("fleet size = %d, want 5", len(fleet))
	}
	seen := map[string]bool{}
	for _, p := range fleet {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.MemBandwidth <= 0 || p.ComputeFLOPS <= 0 || p.MemBytes <= 0 {
			t.Fatalf("%s: non-positive performance numbers", p.Name)
		}
		if p.Link.Lanes <= 0 {
			t.Fatalf("%s: no PCIe link", p.Name)
		}
	}
	if _, err := ProfileByName("A100"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("H100"); err == nil {
		t.Fatal("unknown profile resolved")
	}
}

func TestCommandMarshalRoundTrip(t *testing.T) {
	c := Command{Op: OpCopyH2D, Param: 7, Src: 0x1234, Dst: 0x400, Len: 4096}
	got, err := UnmarshalCommand(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := UnmarshalCommand(make([]byte, 10)); err == nil {
		t.Fatal("short entry accepted")
	}
}

func TestDeviceIdentityRegisters(t *testing.T) {
	h := newHarness(t, A100)
	id := h.mmioRead64(RegID)
	if uint16(id) != A100.VendorID || uint16(id>>16) != A100.DeviceID {
		t.Fatalf("RegID = %#x", id)
	}
	if h.mmioRead64(RegStatus)&StatusReady == 0 {
		t.Fatal("device not ready after bring-up")
	}
}

func TestH2DCopyMovesRealBytes(t *testing.T) {
	h := newHarness(t, A100)
	src, _ := h.space.Alloc("host", "input", 4096)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	copy(src.Bytes(), payload)

	h.submit(t, Command{Op: OpCopyH2D, Src: src.Base(), Dst: 0x100, Len: uint64(len(payload))})
	if got := h.dev.DevMem()[0x100 : 0x100+len(payload)]; !bytes.Equal(got, payload) {
		t.Fatalf("device memory = %q", got)
	}
	if len(h.msi) == 0 || h.msi[0] != 0x41 {
		t.Fatal("completion MSI not delivered")
	}
}

func TestD2HCopyAndKernel(t *testing.T) {
	h := newHarness(t, T4)
	src, _ := h.space.Alloc("host", "in", 4096)
	dst, _ := h.space.Alloc("host", "out", 4096)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	copy(src.Bytes(), data)

	h.submit(t,
		Command{Op: OpCopyH2D, Src: src.Base(), Dst: 0, Len: 256},
		Command{Op: OpKernel, Param: KernelXORMask<<16 | 0x5a, Src: 0, Dst: 0x1000, Len: 256},
		Command{Op: OpCopyD2H, Src: 0x1000, Dst: dst.Base(), Len: 256},
	)
	out := dst.Bytes()[:256]
	for i := range out {
		if out[i] != data[i]^0x5a {
			t.Fatalf("byte %d = %#x, want %#x", i, out[i], data[i]^0x5a)
		}
	}
}

func TestChecksumKernel(t *testing.T) {
	h := newHarness(t, S60)
	src, _ := h.space.Alloc("host", "in", 4096)
	dst, _ := h.space.Alloc("host", "out", 4096)
	copy(src.Bytes(), []byte("hello"))

	h.submit(t,
		Command{Op: OpCopyH2D, Src: src.Base(), Dst: 0, Len: 5},
		Command{Op: OpKernel, Param: KernelChecksum << 16, Src: 0, Dst: 0x100, Len: 8},
		Command{Op: OpCopyD2H, Src: 0x100, Dst: dst.Base(), Len: 8},
	)
	// FNV-1a over 5-byte "hello" but kernel hashes Len=8 bytes of src...
	// compute expected over the 8 bytes actually hashed.
	var want uint64 = 0xcbf29ce484222325
	for _, b := range h.dev.DevMem()[:8] {
		want ^= uint64(b)
		want *= 0x100000001b3
	}
	got := binary.LittleEndian.Uint64(dst.Bytes()[:8])
	if got != want {
		t.Fatalf("checksum = %#x, want %#x", got, want)
	}
}

func TestMultipleCommandsAdvanceHead(t *testing.T) {
	h := newHarness(t, A100)
	h.submit(t, Command{Op: OpNop}, Command{Op: OpNop}, Command{Op: OpFence})
	if head := h.mmioRead64(RegCmdHead); head != 3 {
		t.Fatalf("head = %d, want 3", head)
	}
	if n := h.dev.Executed(); n != 3 {
		t.Fatalf("executed = %d", n)
	}
}

// TestExecutedCommandsRetainConstantState runs 64,000 commands through
// one device and requires its live heap to stay flat: every per-command
// record the device keeps must be a counter, not a log, or a
// long-running serving chassis leaks memory in proportion to the tasks
// it has run.
func TestExecutedCommandsRetainConstantState(t *testing.T) {
	h := newHarness(t, A100)
	for slot := uint64(0); slot < 64; slot++ {
		if err := h.space.Write(h.ring.Base()+slot*CmdSize, Command{Op: OpNop}.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	batch := func() {
		h.tail += 64
		h.mmio64(RegCmdTail, h.tail)
		h.mmio64(RegDoorbell, 1)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	batch() // warm-up: slabs and packet arenas carved
	before := liveHeap()
	const batches = 1000
	for i := 1; i < batches; i++ {
		batch()
	}
	after := liveHeap()
	runtime.KeepAlive(h)

	if n := h.dev.Executed(); n != batches*64 {
		t.Fatalf("executed = %d, want %d", n, batches*64)
	}
	if head := h.mmioRead64(RegCmdHead); head != batches*64 {
		t.Fatalf("head = %d, want %d", head, batches*64)
	}
	// 64,000 retained 32-byte commands would be 2 MiB; the harness's own
	// MSI log adds ~4 KiB.
	if after > before && after-before > 256<<10 {
		t.Fatalf("live heap grew %d B over %d commands; device state must not scale with commands run",
			after-before, batches*64)
	}
}

func TestFaultOnBadCommand(t *testing.T) {
	h := newHarness(t, A100)
	h.submit(t, Command{Op: 0xff})
	if h.dev.Faults() != 1 {
		t.Fatalf("faults = %d", h.dev.Faults())
	}
	if h.mmioRead64(RegStatus)&StatusFault == 0 {
		t.Fatal("fault bit not set")
	}
	if h.mmioRead64(RegIntStatus)&IntFault == 0 {
		t.Fatal("fault interrupt not raised")
	}
}

func TestFaultOnOutOfBoundsCopy(t *testing.T) {
	h := newHarness(t, A100)
	h.submit(t, Command{Op: OpCopyH2D, Src: 0x1000_0000, Dst: 1 << 40, Len: 16})
	if h.dev.Faults() == 0 {
		t.Fatal("out-of-bounds copy executed")
	}
}

func TestInterruptWrite1ToClear(t *testing.T) {
	h := newHarness(t, A100)
	h.submit(t, Command{Op: OpNop})
	if h.mmioRead64(RegIntStatus)&IntCmdDone == 0 {
		t.Fatal("done interrupt missing")
	}
	h.mmio64(RegIntStatus, IntCmdDone)
	if h.mmioRead64(RegIntStatus)&IntCmdDone != 0 {
		t.Fatal("W1C did not clear")
	}
}

func TestEnvResetWipesState(t *testing.T) {
	h := newHarness(t, A100) // supports soft reset
	src, _ := h.space.Alloc("host", "in", 4096)
	copy(src.Bytes(), []byte("residue"))
	h.submit(t, Command{Op: OpCopyH2D, Src: src.Base(), Dst: 0, Len: 7})
	if !h.dev.MemResidue() {
		t.Fatal("expected residue before reset")
	}
	h.mmio64(RegReset, ResetEnv)
	if h.dev.MemResidue() {
		t.Fatal("environment reset left residue")
	}
	if h.dev.EnvResets() != 1 || h.dev.ColdBoots() != 0 {
		t.Fatalf("envResets=%d coldBoots=%d", h.dev.EnvResets(), h.dev.ColdBoots())
	}
	if h.mmioRead64(RegPageTable) != 0 {
		t.Fatal("page table register survived reset")
	}
}

func TestEnvResetFallsBackToColdBoot(t *testing.T) {
	h := newHarness(t, N150d) // no soft reset support
	h.mmio64(RegReset, ResetEnv)
	if h.dev.ColdBoots() != 1 {
		t.Fatalf("coldBoots = %d, want 1 (fallback)", h.dev.ColdBoots())
	}
	if h.mmioRead64(RegStatus)&StatusReady == 0 {
		t.Fatal("device not ready after cold boot")
	}
}

func TestReadOnlyRegistersIgnoreWrites(t *testing.T) {
	h := newHarness(t, A100)
	before := h.mmioRead64(RegFWVersion)
	h.mmio64(RegFWVersion, 0xdeadbeef)
	if h.mmioRead64(RegFWVersion) != before {
		t.Fatal("firmware version register writable")
	}
	h.mmio64(RegID, 0)
	if h.mmioRead64(RegID) == 0 {
		t.Fatal("identity register writable")
	}
}

func TestMMIOOutsideBAR0Unsupported(t *testing.T) {
	h := newHarness(t, A100)
	cpl := h.dev.Handle(pcie.NewMemRead(pcie.MakeID(0, 0, 0), 0xf000_0000+BAR0Size+8, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplUR {
		t.Fatalf("out-of-window read returned %v", cpl)
	}
}

func TestConfigSpaceAccessViaTLP(t *testing.T) {
	h := newHarness(t, A100)
	req := &pcie.Packet{Header: pcie.Header{Kind: pcie.CfgRd, Requester: pcie.MakeID(0, 0, 0), Completer: h.dev.DeviceID(), Address: pcie.CfgVendorID, Length: 4}}
	cpl := h.dev.Handle(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("config read failed")
	}
	if v := binary.LittleEndian.Uint32(cpl.Payload); uint16(v) != A100.VendorID {
		t.Fatalf("vendor = %#x", v)
	}
}

func TestScratchRegion(t *testing.T) {
	h := newHarness(t, A100)
	h.dev.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+RegScratch, []byte("driver state")))
	cpl := h.dev.Handle(pcie.NewMemRead(pcie.MakeID(0, 0, 0), 0xf000_0000+RegScratch, 12, 0))
	if string(cpl.Payload) != "driver state" {
		t.Fatalf("scratch = %q", cpl.Payload)
	}
}
