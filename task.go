package ccai

import (
	"context"
	"fmt"

	"ccai/internal/adaptor"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/xpu"
)

// Kernel selects a functional reference kernel for task execution.
// Real model math is handled by the timing model (internal/bench);
// these kernels prove that data actually flows end-to-end through the
// protected path byte-for-byte.
type Kernel uint32

const (
	// KernelAdd computes out[i] = in[i] + param.
	KernelAdd Kernel = xpu.KernelVecAddConst
	// KernelChecksum computes an FNV-1a digest of the input.
	KernelChecksum Kernel = xpu.KernelChecksum
	// KernelXOR computes out[i] = in[i] ^ param.
	KernelXOR Kernel = xpu.KernelXORMask
)

func (k Kernel) String() string {
	switch k {
	case KernelAdd:
		return "add"
	case KernelChecksum:
		return "checksum"
	case KernelXOR:
		return "xor"
	}
	return fmt.Sprintf("kernel%d", uint32(k))
}

// Task is one confidential xPU job: input data, a kernel, and its
// parameter. Output size equals input size (KernelChecksum pads to 8).
type Task struct {
	Input  []byte
	Kernel Kernel
	Param  uint8
}

// RunTask executes a task on the tenant's device using the native
// driver flow: stage input, submit copy/kernel/copy commands, collect
// the result. Under Protected mode the input crosses the host bus only
// as ciphertext and the result returns encrypted; under Vanilla it
// travels in the clear (which the adversary tests exploit). Safe to
// call concurrently with other tenants' RunTask; calls on the same
// tenant serialize.
//
// With observability on each run opens a task scope: every span
// recorded until the task returns carries the same task ID, and the
// run itself is one "run_task" span on the task track tagged with the
// kernel, input size and outcome — metadata only, never the data.
func (t *Tenant) RunTask(task Task) ([]byte, error) {
	return t.RunTaskCtx(context.Background(), task)
}

// RunTaskCtx is RunTask with end-to-end cancellation. The context is
// honored at the pipeline's safe points — before staging and before
// the doorbell — so an early cancellation costs nothing on the device.
// Once the submission is rung the run is drained to completion and
// only then is the cancellation reported (result discarded): aborting
// a command mid-ring would leave IV counters and tag state
// mid-protocol, which no cancellation is worth. Cancellation errors
// satisfy errors.Is on context.Canceled / ErrDeadlineExceeded.
func (t *Tenant) RunTaskCtx(ctx context.Context, task Task) ([]byte, error) {
	obs := t.parent.Obs
	tr := obs.T()
	id := tr.StartTask()
	defer tr.EndTask()
	sp := tr.Begin(obsv.TrackTask, "run_task",
		obsv.U64("task", id),
		obsv.Str("kernel", task.Kernel.String()),
		obsv.I64("in_bytes", int64(len(task.Input))),
		obsv.Str("mode", t.Mode.String()))
	out, err := t.run(ctx, task)
	status := "ok"
	if err != nil {
		status = "error"
	}
	sp.Attr(obsv.Str("status", status), obsv.I64("out_bytes", int64(len(out))))
	sp.End()
	obs.Reg().Counter(obsv.Name("task.runs", "mode", t.Mode.String(), "status", status)).Inc()
	return out, err
}

// run is the task datapath behind RunTaskCtx and the Scheduler (which
// wraps it in its own execute span). Only staging and collection
// branch on the mode.
func (t *Tenant) run(ctx context.Context, task Task) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if t.Mode == Protected && !t.trusted {
		return nil, fmt.Errorf("ccai: tenant %d: %w; call EstablishTrust first", t.Index, ErrNotTrusted)
	}
	if len(task.Input) == 0 {
		return nil, fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrEmptyInput)
	}
	outLen := int64(len(task.Input))
	if task.Kernel == KernelChecksum && outLen < 8 {
		outLen = 8
	}

	var inAddr, outAddr uint64
	var inRegion, outRegion *adaptor.Region
	var outBuf *mem.Buffer
	if t.Mode == Protected {
		in, err := t.Adaptor.StageH2D("task-input", task.Input)
		if err != nil {
			return nil, err
		}
		defer t.Adaptor.ReleaseRegion(in)
		out, err := t.Adaptor.PrepareD2H("task-output", outLen)
		if err != nil {
			return nil, err
		}
		defer t.Adaptor.ReleaseRegion(out)
		inRegion, outRegion = in, out
		inAddr, outAddr = in.Buf.Base(), out.Buf.Base()
	} else {
		space := t.Guest.Space
		in, err := space.Alloc(t.shared, "task-input", int64(len(task.Input)))
		if err != nil {
			return nil, err
		}
		defer space.Free(in)
		copy(in.Bytes(), task.Input)
		out, err := space.Alloc(t.shared, "task-output", outLen)
		if err != nil {
			return nil, err
		}
		defer space.Free(out)
		outBuf = out
		inAddr, outAddr = in.Base(), out.Base()
	}
	// Last safe point: staging consumed IV counters (monotonically — a
	// released region is never re-sealed under the same IVs), but the
	// device has seen nothing, so abandoning here is free.
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}

	// The device-memory layout for the task: input at 0, output after.
	const devIn, devOut = 0x0, 0x40000
	cmds := []xpu.Command{
		{Op: xpu.OpCopyH2D, Src: inAddr, Dst: devIn, Len: uint64(len(task.Input))},
		{Op: xpu.OpKernel, Param: uint32(task.Kernel)<<16 | uint32(task.Param), Src: devIn, Dst: devOut, Len: uint64(outLen)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: outAddr, Len: uint64(outLen)},
	}
	before := t.Driver.Tail()
	if err := t.Driver.Submit(cmds...); err != nil {
		return nil, err
	}
	want := before + uint64(len(cmds))
	head, err := t.Driver.Head()
	if err != nil || head != want {
		if rerr := t.recoverSubmission(inRegion, before, want); rerr != nil {
			return nil, rerr
		}
	}
	var res []byte
	if t.Mode == Protected {
		if res, err = t.Adaptor.CollectD2H(outRegion, outLen); err != nil {
			return nil, err
		}
	} else {
		res = append([]byte(nil), outBuf.Bytes()...)
	}
	// Cancellation that landed mid-run: the pipeline drained cleanly
	// (collect included, so stream state is fully advanced); only the
	// result is withheld.
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	return res, nil
}

// submitRecoveryAttempts bounds the stalled-submission recovery loop.
const submitRecoveryAttempts = 3

// recoverSubmission drives the recovery ladder for a submission the
// device did not fully consume: re-align the A3 MMIO sequence (a lost
// guarded write desynchronises it permanently), repost the input
// region's tag table (tag-packet loss orphans chunks), then kick the
// driver (re-sync ring MACs, re-ring the doorbell). Without it a single
// dropped doorbell or lost guarded write would desynchronise the ring
// head from its tail permanently. If the device still hasn't consumed
// everything after bounded attempts, the Adaptor tears the session
// down fail-closed: keys zeroized on both ends and the device cleaned
// through the environment guard, because a half-run confidential task
// must not leave a live session behind. A vanilla tenant has no ladder
// and reports the stall as is.
func (t *Tenant) recoverSubmission(in *adaptor.Region, before, want uint64) error {
	for attempt := 0; t.Mode == Protected && attempt < submitRecoveryAttempts; attempt++ {
		if err := t.Adaptor.ResyncMMIO(); err != nil {
			break
		}
		if in != nil {
			t.Adaptor.RepostTags(in)
		}
		if err := t.Driver.Kick(); err != nil {
			continue
		}
		head, err := t.Driver.Head()
		if err == nil && head == want {
			return nil
		}
	}
	st, _ := t.Driver.Status()
	head, _ := t.Driver.Head()
	reason := fmt.Sprintf("submission stalled: device consumed %d/%d commands (status %#x)", head-before, want-before, st)
	if t.Mode != Protected {
		return fmt.Errorf("ccai: tenant %d: %s", t.Index, reason)
	}
	t.Adaptor.FailClosed(reason)
	t.trusted = false
	return fmt.Errorf("ccai: tenant %d: %s; session torn down", t.Index, reason)
}
