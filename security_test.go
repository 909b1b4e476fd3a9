package ccai

// RQ2 (§8.2): the security analysis run as executable tests. Each test
// launches one attack class from the paper's threat model against a
// live platform and asserts the defence holds.

import (
	"bytes"
	"testing"

	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

var secret = []byte("TOP-SECRET-MODEL-WEIGHTS-0123456789")

// taskInput builds an input embedding the canary secret.
func taskInput() []byte {
	in := make([]byte, 900)
	for i := range in {
		in[i] = byte(i * 3)
	}
	copy(in[100:], secret)
	copy(in[700:], secret)
	return in
}

// TestRQ2_SnoopVanillaSeesPlaintext establishes the attack works at
// all: without ccAI, a bus snooper reads the workload directly.
func TestRQ2_SnoopVanillaSeesPlaintext(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	snoop := attack.NewSnooper()
	p.Host.AddTap(snoop)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !snoop.SawPlaintext(secret) {
		t.Fatal("baseline broken: snooper missed plaintext on unprotected bus")
	}
}

// TestRQ2_SnoopProtectedSeesOnlyCiphertext is invariant 1 of DESIGN.md:
// no A2 plaintext on the untrusted segment.
func TestRQ2_SnoopProtectedSeesOnlyCiphertext(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	snoop := attack.NewSnooper()
	p.Host.AddTap(snoop)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Param 0: output equals input, so the result also contains the
	// secret — and its D2H path must be encrypted too.
	if !bytes.Contains(out, secret) {
		t.Fatal("task did not round-trip the canary")
	}
	if snoop.SawPlaintext(secret) {
		t.Fatal("CONFIDENTIALITY BREACH: secret visible on untrusted bus")
	}
	if snoop.PayloadBytes() == 0 {
		t.Fatal("snooper saw no traffic; test not exercising the bus")
	}
	// On the internal (trusted, sealed-chassis) segment the xPU does
	// receive plaintext — that is by design.
	inner := attack.NewSnooper()
	p.Internal.AddTap(inner)
	if _, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !inner.SawPlaintext(secret) {
		t.Fatal("xPU never received plaintext; computation would be garbage")
	}
}

// TestRQ2_TamperedDataDetected flips bits in encrypted H2D traffic; the
// SC's integrity check must catch it — the tampered bytes never reach
// the device, and the recovered task (the retransmit re-verifies) must
// produce the exact untampered result.
func TestRQ2_TamperedDataDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			// Corrupt ciphertext completions returning bounce-buffer
			// data toward the SC. Submission-ring fetches are exact
			// RingSlotSize multiples and are skipped: tampering ring
			// framing is a separate fail-closed path (fault matrix).
			return pk.Kind == pcie.CplD && pk.Requester == SCID &&
				len(pk.Payload)%core.RingSlotSize != 0
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 2})
	if tamper.Tampered() == 0 {
		t.Fatal("tamperer never fired; test vacuous")
	}
	if p.SC.Stats().AuthFailures == 0 {
		t.Fatal("SC did not record the integrity failure")
	}
	if err != nil {
		t.Fatalf("recovery should re-drive after a single tamper: %v", err)
	}
	for i := range in {
		if out[i] != in[i]+2 {
			t.Fatalf("output corrupted at byte %d: tampered data reached the computation", i)
		}
	}
}

// TestRQ2_TamperedResultDetected corrupts the encrypted D2H result in
// the bounce buffer; the Adaptor's decrypt must fail.
func TestRQ2_TamperedResultDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			// Corrupt SC→host encrypted result writes into the shared
			// window (skip the small tag-table writes).
			return pk.Kind == pcie.MWr && pk.Requester == SCID && len(pk.Payload) >= 64
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err == nil {
		t.Fatal("Adaptor accepted a tampered result")
	}
}

// TestRQ2_TamperedDoorbellBlocked corrupts an A3 MMIO write; the MAC
// check must reject it and the device must never see the command.
func TestRQ2_TamperedDoorbellBlocked(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID && pk.Address >= 0xd000_0000 && pk.Address < 0xd000_1000
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	in := []byte("cmd tamper")
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0})
	if p.SC.Stats().AuthFailures == 0 {
		t.Fatal("A3 MAC failure not recorded")
	}
	// The tampered write itself must be blocked at the SC; recovery then
	// re-syncs the A3 sequence and re-issues it, so the task completes
	// with the correct result (or fails — never executes a forged write).
	if err != nil {
		t.Logf("task failed closed after tampered control write: %v", err)
		return
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("recovered output %q != input %q", out, in)
	}
	if p.Adaptor.Recovery().Resyncs == 0 {
		t.Fatal("task succeeded without an A3 resync; tampered write was not actually blocked")
	}
}

// TestRQ2_ReplayRejected replays captured encrypted traffic; the IV
// counter discipline must reject every replayed chunk.
func TestRQ2_ReplayRejected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	rec := &attack.Recorder{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID
		},
	}
	p.Host.AddTap(rec)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Captured) == 0 {
		t.Fatal("nothing captured to replay")
	}
	authBefore := p.SC.Stats().AuthFailures
	decBefore := p.SC.Stats().DecryptedChunks
	rec.Replay(p.Host)
	if p.SC.Stats().DecryptedChunks != decBefore {
		t.Fatal("replayed traffic caused fresh decryptions")
	}
	_ = authBefore // replayed control writes may or may not hit counters; decryption count is the oracle
}

// TestRQ2_RedirectedResultUnreadable redirects encrypted result chunks
// to a different shared-memory location; the stolen bytes must be
// ciphertext (adversary holds no keys), so secrecy is preserved even
// though the legitimate transfer is disturbed.
func TestRQ2_RedirectedResultUnreadable(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Attacker-readable landing zone inside shared memory.
	landing, err := p.Guest.Space.Alloc("shared", "attacker-landing", 4096)
	if err != nil {
		t.Fatal(err)
	}
	redir := &attack.Redirector{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == SCID && len(pk.Payload) >= 64
		},
		NewDst: landing.Base(),
	}
	p.Host.AddTap(redir)
	_, taskErr := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0})
	if redir.Hits() == 0 {
		t.Fatal("redirector never fired")
	}
	if taskErr == nil {
		t.Fatal("redirected transfer went unnoticed")
	}
	if bytes.Contains(landing.Bytes(), secret) {
		t.Fatal("redirected payload contained plaintext secret")
	}
}

// TestRQ2_DroppedPacketDetected deletes an encrypted chunk in flight.
// The stall is detected and the recovery ladder (tag repost + driver
// kick) re-drives the transfer; the task must either fail or complete
// with the correct result — never silently compute on a hole.
func TestRQ2_DroppedPacketDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	drop := &attack.Dropper{
		Match: func(pk *pcie.Packet) bool {
			// Data completions only; ring fetches (RingSlotSize
			// multiples) self-heal via the SC's bounded re-read and
			// would absorb the drop.
			return pk.Kind == pcie.CplD && pk.Requester == SCID &&
				len(pk.Payload) >= 64 && len(pk.Payload)%core.RingSlotSize != 0
		},
		Count: 1,
	}
	p.Host.AddTap(drop)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
	if drop.Dropped() == 0 {
		t.Fatal("dropper never fired")
	}
	if err != nil {
		t.Fatalf("recovery should re-drive the transfer after a single drop: %v", err)
	}
	for i := range in {
		if out[i] != in[i]+1 {
			t.Fatalf("recovered output wrong at byte %d: got %#x want %#x", i, out[i], in[i]+1)
		}
	}
	if rec := p.Adaptor.Recovery(); rec.Reposts == 0 {
		t.Fatalf("recovery never engaged: %+v", rec)
	}
}

// TestRQ2_RogueTVMBlockedByFilter sends forged requests from an
// unauthorized requester at the xPU window and the SC control BAR; the
// L1 table must drop all of them (Figure 5 ①).
func TestRQ2_RogueTVMBlockedByFilter(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: p.Host}

	droppedBefore := p.SC.Stats().Filter.Dropped
	rogue.Write(0xd000_0000+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	cpl := rogue.Read(0xd000_0000+xpu.RegStatus, 8)
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("rogue TVM read xPU state through the SC")
	}
	if p.SC.Stats().Filter.Dropped <= droppedBefore {
		t.Fatal("filter did not record the rogue drops")
	}
	// Control BAR: requester pinning rejects it.
	rejBefore := p.SC.Stats().ConfigRejects
	rogue.Write(scBARBase+core.RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if p.SC.Stats().Teardowns != 0 {
		t.Fatal("rogue TVM triggered teardown")
	}
	if p.SC.Stats().ConfigRejects <= rejBefore {
		t.Fatal("control-BAR rejection not recorded")
	}
}

// TestRQ2_MaliciousDeviceBlockedByIOMMU aims a rogue peripheral at TVM
// private memory; default-deny IOMMU must fault it.
func TestRQ2_MaliciousDeviceBlockedByIOMMU(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Write a secret into TVM private memory.
	priv, err := p.Guest.Space.Alloc("private", "tvm-secret", 4096)
	if err != nil {
		t.Fatal(err)
	}
	copy(priv.Bytes(), secret)

	evil := &attack.RogueRequester{ID: pcie.MakeID(3, 0, 0), Bus: p.Host}
	cpl := evil.Read(priv.Base(), 64)
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("malicious device read TVM private memory")
	}
	evil.Write(priv.Base(), []byte("overwrite"))
	if !bytes.Equal(priv.Bytes()[:len(secret)], secret) {
		t.Fatal("malicious device modified TVM private memory")
	}
	if len(p.IOMMU.Faults) == 0 {
		t.Fatal("IOMMU recorded no faults")
	}
}

// TestRQ2_SCNeverReadsPrivateMemory: even the trusted SC holds no
// mapping for TVM-private pages (least privilege).
func TestRQ2_SCNeverReadsPrivateMemory(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	priv, err := p.Guest.Space.Alloc("private", "tvm-secret2", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cpl := p.Host.Route(pcie.NewMemRead(SCID, priv.Base(), 64, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("SC mapping extends into private memory")
	}
}

// TestRQ2_ForgedConfigInjectionRejected writes unsealed / wrongly-keyed
// policy blobs into the SC configuration space; only config-stream
// sealed blobs may install rules (§4.1).
func TestRQ2_ForgedConfigInjectionRejected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	l1Before, l2Before := p.SC.Filter().RuleCount()

	evil := core.Rule{ID: 99, Mask: 0, Action: core.ActionPassThrough} // match-all allow
	// Attempt 1: raw plaintext rule (no sealing) from the real TVM ID.
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRuleWindow, evil.Marshal()))
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRuleDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0}))

	// Attempt 2: sealed under an attacker-chosen key.
	wrongStream, _ := secmem.NewStream(secmem.FreshKey(), secmem.FreshNonce())
	sealed, _ := wrongStream.Seal(evil.Marshal(), nil)
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRuleWindow, core.MarshalBlob(sealed)))
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRuleDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0}))

	l1After, l2After := p.SC.Filter().RuleCount()
	if l1After != l1Before || l2After != l2Before {
		t.Fatal("forged policy installed")
	}
	if p.SC.Stats().ConfigRejects < 2 {
		t.Fatalf("config rejects = %d, want >= 2", p.SC.Stats().ConfigRejects)
	}
}

// TestRQ2_EnvGuardBlocksRoguePageTable installs the paper's example
// environment check (page-table register validity) and verifies a
// malicious value is stopped even with a valid MAC.
func TestRQ2_EnvGuardBlocksRoguePageTable(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	p.SC.Guard().AddCheck(core.MMIOCheck{
		Name:  "page-table-range",
		Reg:   xpu.RegPageTable,
		Valid: func(v uint64) bool { return v < 1<<20 }, // must stay in device memory
	})
	// Legitimate write passes.
	if err := p.Adaptor.GuardedWrite(xpu.RegPageTable, 0x4000); err != nil {
		t.Fatal(err)
	}
	// The Adaptor is trusted, but suppose compromised guest software
	// convinced it to point the page table at host memory: the SC's
	// independent check still blocks the value.
	blocksBefore := p.SC.Stats().GuardBlocks
	_ = p.Adaptor.GuardedWrite(xpu.RegPageTable, 0xffff_0000_0000)
	if p.SC.Stats().GuardBlocks != blocksBefore+1 {
		t.Fatal("environment guard did not block the rogue page table")
	}
	// Device register must still hold the legitimate value.
	v, err := p.Adaptor.DeviceRead(xpu.RegPageTable)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x4000 {
		t.Fatalf("page table register = %#x, want 0x4000", v)
	}
}

// TestRQ2_IVExhaustionForcesRekey drives a stream to counter exhaustion
// and verifies the session refuses to reuse an IV and recovers after
// rekey (§6 key management).
func TestRQ2_IVExhaustionForcesRekey(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Exhaust the TVM-side h2d counter artificially.
	h2d, err := p.tvmKeys.Stream(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	_ = h2d // direct stream replica; the Adaptor holds its own.
	// Force the Adaptor's stream near exhaustion via many small stages
	// is impractical; instead verify at the secmem layer with the same
	// material, then verify rekey on the SC's manager.
	key, nonce, err := p.SC.Keys().Material(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := secmem.NewStream(key, nonce)
	s.ForceCounter(^uint32(0))
	if _, err := s.Seal([]byte("x"), nil); err == nil {
		t.Fatal("IV reuse permitted")
	}
	if err := p.SC.Params().Rekey(core.StreamH2D, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	scStream, _ := p.SC.Params().Stream(core.StreamH2D)
	if scStream.Epoch() != 1 {
		t.Fatalf("SC stream epoch = %d after rekey", scStream.Epoch())
	}
}

// TestRQ2_FilterStatsAccounting sanity-checks that a clean protected
// run drops nothing and classifies traffic into all three permit
// classes.
func TestRQ2_FilterStatsAccounting(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	st := p.SC.Stats().Filter
	if st.Dropped != 0 {
		t.Fatalf("clean run dropped %d packets", st.Dropped)
	}
	if st.Protected == 0 || st.Verified == 0 || st.Passed == 0 {
		t.Fatalf("expected A2+A3+A4 traffic, got %+v", st)
	}
}
