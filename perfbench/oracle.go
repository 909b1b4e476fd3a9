package main

import (
	"bytes"
	"encoding/binary"

	"ccai"
	"ccai/internal/llm"
)

// The host-side output oracle. Every task output and every decode chunk
// the benchmark receives is recomputed here and compared byte for byte;
// a mismatch is counted as a failed operation and fails the run.

// xorOK reports whether out is in with every byte XORed with param.
func xorOK(in, out []byte, param uint8) bool {
	if len(in) != len(out) {
		return false
	}
	mask := uint64(param) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(in); i += 8 {
		if binary.LittleEndian.Uint64(in[i:])^mask != binary.LittleEndian.Uint64(out[i:]) {
			return false
		}
	}
	for ; i < len(in); i++ {
		if in[i]^param != out[i] {
			return false
		}
	}
	return true
}

// fnv1a is the 64-bit FNV-1a digest KernelChecksum computes.
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// taskOutWindow is the largest task output the benchmark issues.
const taskOutWindow = 64 << 10

// deviceMirror is the host's copy of one device's task output window.
// A task writes its result at a fixed device address and copies back
// as many bytes as it sent. KernelChecksum writes only the first 8 of
// them, so the rest of a checksum output is whatever the tenant's
// previous tasks left there. The mirror replays every task in the
// tenant's execution order so that those bytes are checked too.
type deviceMirror struct {
	win []byte
}

func newDeviceMirror() *deviceMirror { return &deviceMirror{win: make([]byte, taskOutWindow)} }

// check advances the mirror by one task and reports whether out is the
// task's exact output. Calls must follow the order the device ran the
// tasks in.
func (m *deviceMirror) check(k ccai.Kernel, param uint8, in, out []byte) bool {
	n := len(in)
	if k == ccai.KernelChecksum && n < 8 {
		n = 8
	}
	switch k {
	case ccai.KernelXOR:
		for i, b := range in {
			m.win[i] = b ^ param
		}
	case ccai.KernelChecksum:
		binary.LittleEndian.PutUint64(m.win[:8], fnv1a(in))
	default:
		return false
	}
	return bytes.Equal(out, m.win[:n])
}

// chunkOK reports whether tokens is decode chunk idx, span bytes long,
// of a session whose KV image is kv and whose generator digest is
// digest.
func chunkOK(kv []byte, digest uint64, idx int, span int64, tokens []byte) bool {
	return bytes.Equal(tokens, llm.ExpectedChunk(kv, digest, idx, span))
}
