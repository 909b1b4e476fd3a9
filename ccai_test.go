package ccai

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/xpu"
)

func protectedPlatform(t *testing.T, profile xpu.Profile) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{XPU: profile, Mode: Protected})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func vanillaPlatform(t *testing.T, profile xpu.Profile) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{XPU: profile, Mode: Vanilla})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestVanillaTaskRoundTrip(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	input := []byte("hello unprotected world, this is plaintext DMA")
	out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x5a})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]^0x5a {
			t.Fatalf("byte %d: got %#x", i, out[i])
		}
	}
}

func TestProtectedTaskRoundTrip(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	input := []byte("confidential patient record: diagnosis code 42-X, model input tensor")
	out, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]+1 {
			t.Fatalf("byte %d: got %#x, want %#x", i, out[i], input[i]+1)
		}
	}
	// The SC must have actually decrypted and encrypted chunks.
	st := p.SC.Stats()
	if st.DecryptedChunks == 0 || st.EncryptedChunks == 0 {
		t.Fatalf("crypto path not exercised: %+v", st)
	}
	if st.AuthFailures != 0 {
		t.Fatalf("unexpected auth failures: %+v", st)
	}
}

func TestProtectedTaskMultiChunk(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// > 4 chunks of 256 bytes, with a partial tail chunk.
	input := make([]byte, 1111)
	for i := range input {
		input[i] = byte(i * 7)
	}
	out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0xff})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]^0xff {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestProtectedMatchesVanillaResults(t *testing.T) {
	input := []byte("determinism check: both modes compute identical results")
	van := vanillaPlatform(t, xpu.T4)
	pro := protectedPlatform(t, xpu.T4)
	a, err := van.RunTask(Task{Input: input, Kernel: KernelChecksum})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pro.RunTask(Task{Input: input, Kernel: KernelChecksum})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("vanilla %x != protected %x", a, b)
	}
}

// TestMultiXPUCompatibility is the functional core of RQ1/Figure 10:
// the same unmodified driver + Adaptor stack runs every device in the
// fleet.
func TestMultiXPUCompatibility(t *testing.T) {
	input := []byte("one adaptor, one driver, five devices")
	for _, prof := range xpu.Fleet() {
		t.Run(prof.Name, func(t *testing.T) {
			p := protectedPlatform(t, prof)
			out, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range input {
				if out[i] != input[i]+3 {
					t.Fatalf("%s: byte %d wrong", prof.Name, i)
				}
			}
		})
	}
}

func TestSequentialTasksOneSession(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	for i := 0; i < 5; i++ {
		input := bytes.Repeat([]byte{byte(i + 1)}, 300+i*17)
		out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x11})
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		for j := range input {
			if out[j] != input[j]^0x11 {
				t.Fatalf("task %d byte %d wrong", i, j)
			}
		}
	}
}

func TestInterruptsDeliveredThroughSC(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: []byte("irq"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if len(p.Bridge.Interrupts()) == 0 {
		t.Fatal("MSI did not traverse the SC to the host bridge")
	}
}

func TestTaskWithoutTrustRejected(t *testing.T) {
	p, err := NewPlatform(Config{Mode: Protected})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd}); err == nil {
		t.Fatal("task ran without trust establishment")
	}
}

func TestTeardownCleansDeviceAndKeys(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: []byte("leave residue"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !p.Device.MemResidue() {
		t.Fatal("expected device residue before teardown")
	}
	p.Close()
	if p.Device.MemResidue() {
		t.Fatal("environment guard left workload residue on the device")
	}
	if p.SC.Params().Active() != 0 {
		t.Fatal("teardown left live stream contexts")
	}
	st := p.SC.Stats()
	if st.Teardowns != 1 {
		t.Fatalf("teardowns = %d", st.Teardowns)
	}
}

func TestEnvResetFallbackForNPU(t *testing.T) {
	p := protectedPlatform(t, xpu.N150d) // no soft reset support
	if _, err := p.RunTask(Task{Input: []byte("npu job"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if p.Device.ColdBoots() == 0 {
		t.Fatal("NPU teardown should fall back to cold boot")
	}
}

func TestNoOptModeStillCorrect(t *testing.T) {
	opts := adaptor.NoOpt()
	p, err := NewPlatform(Config{Mode: Protected, Adaptor: &opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 700)
	for i := range input {
		input[i] = byte(i)
	}
	out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x33})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]^0x33 {
			t.Fatalf("no-opt byte %d wrong", i)
		}
	}
}

func TestOptimizationReducesIOWrites(t *testing.T) {
	run := func(opts adaptor.Options) adaptor.IOStats {
		p, err := NewPlatform(Config{Mode: Protected, Adaptor: &opts})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.EstablishTrust(); err != nil {
			t.Fatal(err)
		}
		input := make([]byte, 8192) // 32 chunks => 32 tag records
		if _, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 1}); err != nil {
			t.Fatal(err)
		}
		return p.Adaptor.IO()
	}
	opt := run(adaptor.Optimized())
	noopt := run(adaptor.NoOpt())
	if noopt.MMIOWrites <= opt.MMIOWrites {
		t.Fatalf("batching did not reduce I/O writes: opt=%d noopt=%d", opt.MMIOWrites, noopt.MMIOWrites)
	}
}

func TestEmptyTaskRejected(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{}); err == nil {
		t.Fatal("empty task accepted")
	}
}

// TestAttestationGatesKeyProvisioning models a flashed/compromised xPU:
// the device answers the software-attestation challenge with a digest
// derived from its (wrong) firmware, the SC's golden measurement does
// not match, and trust establishment refuses to hand out keys (§6).
func TestAttestationGatesKeyProvisioning(t *testing.T) {
	p, err := NewPlatform(Config{Mode: Protected, GoldenFirmware: "550.90.07-genuine"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EstablishTrust(); err == nil {
		t.Fatal("compromised firmware attested successfully")
	}
	if p.SC.Params().Active() != 0 {
		t.Fatal("keys provisioned despite failed attestation")
	}
	if _, err := p.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd}); err == nil {
		t.Fatal("task ran on unattested platform")
	}
}

// cancelAfterFirstCheck is a context that is live at its first Err()
// call and cancelled from then on: cancellation lands while the task
// is staging.
type cancelAfterFirstCheck struct {
	context.Context
	checks int
}

func (c *cancelAfterFirstCheck) Err() error {
	c.checks++
	if c.checks == 1 {
		return nil
	}
	return context.Canceled
}

// TestPlatformCancelAfterStaging: a cancellation that lands after the
// entry check is honoured at the next safe point, and the result is
// withheld.
func TestPlatformCancelAfterStaging(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	ctx := &cancelAfterFirstCheck{Context: context.Background()}
	out, err := p.RunTaskCtx(ctx, Task{Input: []byte("cancel me mid-run"), Kernel: KernelXOR, Param: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled run returned output %q", out)
	}
}
