package main

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ccai"
	"ccai/internal/llm"
)

func TestXOROracleRejectsOneFlippedByte(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 64<<10+3) // a tail past the last whole word
	rng.Read(in)
	out := make([]byte, len(in))
	for i := range in {
		out[i] = in[i] ^ 0x5a
	}
	if !xorOK(in, out, 0x5a) {
		t.Fatal("correct output rejected")
	}
	for _, pos := range []int{0, 7, 8, 4097, len(out) - 1} {
		out[pos] ^= 0x01
		if xorOK(in, out, 0x5a) {
			t.Fatalf("output with byte %d flipped accepted", pos)
		}
		out[pos] ^= 0x01
	}
	if xorOK(in, out[:len(out)-1], 0x5a) {
		t.Fatal("short output accepted")
	}
}

// TestDeviceMirrorChecksEveryByte checks a checksum output past its 8
// digest bytes: those bytes are what the tenant's previous task left in
// the output window, and the mirror must hold them exactly.
func TestDeviceMirrorChecksEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newDeviceMirror()
	prev := make([]byte, 4096)
	rng.Read(prev)
	prevOut := make([]byte, len(prev))
	for i := range prev {
		prevOut[i] = prev[i] ^ 0x33
	}
	if !m.check(ccai.KernelXOR, 0x33, prev, prevOut) {
		t.Fatal("correct XOR output rejected")
	}

	in := make([]byte, 2048)
	rng.Read(in)
	out := append([]byte(nil), prevOut[:len(in)]...)
	binary.LittleEndian.PutUint64(out, fnv1a(in))
	want := append([]byte(nil), out...)
	for _, pos := range []int{0, 7, 8, len(out) - 1} {
		bad := append([]byte(nil), want...)
		bad[pos] ^= 0x80
		mm := newDeviceMirror()
		mm.check(ccai.KernelXOR, 0x33, prev, prevOut)
		if mm.check(ccai.KernelChecksum, 0, in, bad) {
			t.Fatalf("checksum output with byte %d flipped accepted", pos)
		}
	}
	if !m.check(ccai.KernelChecksum, 0, in, want) {
		t.Fatal("correct checksum output rejected")
	}
}

func TestFNV1aMatchesDigest(t *testing.T) {
	// FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
	if got := fnv1a([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("fnv1a(a) = %#x", got)
	}
}

func TestChunkOracleRejectsOneFlippedByte(t *testing.T) {
	cfg := llm.Config{MaxNewTokens: llmNewTokens, ChunkTokens: llmChunkTokens, TokenBytes: llmTokenBytes, MaxPromptTokens: 16, Seed: 7}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	prompt := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	digest := llm.Digest(cfg.Seed, prompt)
	kv := llm.KVInit(digest, cfg.KVBytes(cfg.MaxPromptTokens))
	for _, idx := range []int{0, 1, cfg.Chunks() - 1} {
		span := int64(cfg.ChunkSpan(idx) * cfg.TokenBytes)
		chunk := llm.ExpectedChunk(kv, digest, idx, span)
		if !chunkOK(kv, digest, idx, span, chunk) {
			t.Fatalf("chunk %d: correct chunk rejected", idx)
		}
		for pos := range chunk {
			chunk[pos] ^= 0x04
			if chunkOK(kv, digest, idx, span, chunk) {
				t.Fatalf("chunk %d with byte %d flipped accepted", idx, pos)
			}
			chunk[pos] ^= 0x04
		}
		if chunkOK(kv, digest, idx, span, chunk[:len(chunk)-1]) {
			t.Fatalf("chunk %d: truncated chunk accepted", idx)
		}
		if chunkOK(kv, digest, idx+1, span, chunk) {
			t.Fatalf("chunk %d accepted as chunk %d", idx, idx+1)
		}
	}
}
