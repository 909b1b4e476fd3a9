// Package secmem implements ccAI's cryptographic machinery: AES-GCM
// protected streams with the paper's IV discipline (12-byte nonce +
// 4-byte big-endian counter, §7.2), IV-exhaustion rekeying (§6), plain
// HMAC integrity for Write-Protected (A3) traffic, and performance
// models for the three engines the evaluation distinguishes — the
// PCIe-SC's pipelined hardware engine, the Adaptor's AES-NI path, and
// the slow software path used by the Figure 11 "No Opt" ablation.
package secmem

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// KeySize is the AES key length in bytes. The prototype uses AES-128
// (§7.1 "AES-128 in our prototype").
const KeySize = 16

// TagSize is the GCM authentication tag length (§7.2: 16-byte tag).
const TagSize = 16

// NonceSize is the GCM IV length: 12-byte nonce; the low 4 bytes of the
// nonce's companion counter give "12-byte nonce and 4-byte counter".
const nonceBase = 8
const NonceSize = 12

// ErrIVExhausted reports that a stream consumed its entire 32-bit
// counter space. Continuing would reuse an IV — the GCM fragility the
// paper cites ([23, 29, 42]) — so callers must rekey first.
var ErrIVExhausted = errors.New("secmem: IV counter exhausted; rekey required")

// ErrAuth reports a failed integrity check on a protected payload.
var ErrAuth = errors.New("secmem: authentication failed")

// ErrReplay reports a sequence counter that moved backwards or repeated,
// i.e. a replayed or reordered protected packet.
var ErrReplay = errors.New("secmem: replayed or out-of-order counter")

// ErrTransient reports a recoverable crypto-engine fault (a pipeline
// stall, an ECC hiccup in the engine's working SRAM). The operation
// consumed no stream state — in particular no IV counter — so the
// caller may simply retry; the fault layer injects these to exercise
// recovery paths.
var ErrTransient = errors.New("secmem: transient crypto-engine fault")

// Stream is one direction of a protected channel between the Adaptor and
// the PCIe-SC. Both ends derive the same key and nonce base during trust
// establishment; each encrypted chunk consumes one counter value, and
// the receiver enforces strictly increasing counters, which defeats
// replay and reordering on the untrusted bus segment (§8.2).
type Stream struct {
	// batchMu serializes whole OpenBatch operations (validate →
	// decrypt → watermark advance); it is always acquired before mu and
	// never held by single-chunk operations.
	batchMu sync.Mutex

	mu        sync.Mutex
	aead      cipher.AEAD
	nonceBase [nonceBase]byte
	sendCtr   uint32
	recvCtr   uint32 // highest counter accepted so far (0 = none)
	epoch     uint32 // increments on rekey

	// ivScratch is the IV assembly buffer for single-chunk Seal calls.
	// Guarded by mu; batched paths build IVs in their own scratch
	// outside the lock, so this never races with them.
	ivScratch [NonceSize]byte

	// fault, when set, is consulted before each engine operation and
	// may return ErrTransient to model a recoverable engine error. It
	// fires before any stream state changes, so a failed operation
	// never consumes an IV counter.
	fault func(op string) error
	// ivAudit, when set, observes every (epoch, counter) pair consumed
	// by Seal — the test oracle for the "no IV is ever reused"
	// invariant.
	ivAudit func(epoch, counter uint32)

	// obs carries the optional observability handles. All fields are
	// nil-safe, so the uninstrumented hot path pays one nil check.
	obs *streamObs
}

// streamObs holds cached metric handles and the tracer for one stream
// endpoint. Spans and counters carry only metadata (stream name, side,
// byte counts, counters) — never plaintext or ciphertext bytes.
type streamObs struct {
	tracer *obsv.Tracer
	track  string
	name   string

	sealOps, sealBytes *obsv.Counter
	openOps, openBytes *obsv.Counter
	authFail, replay   *obsv.Counter
	rekeys             *obsv.Counter
}

// SetObserver instruments this stream endpoint. track names the tracer
// track (e.g. "tvm/adaptor/crypto"); name is the stream ("h2d"). A nil
// hub clears instrumentation.
func (s *Stream) SetObserver(h *obsv.Hub, track, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h == nil {
		s.obs = nil
		return
	}
	reg := h.Reg()
	label := func(base string) string { return obsv.Name(base, "stream", name, "side", track) }
	s.obs = &streamObs{
		tracer:    h.T(),
		track:     track,
		name:      name,
		sealOps:   reg.Counter(label("secmem.seal.ops")),
		sealBytes: reg.Counter(label("secmem.seal.bytes")),
		openOps:   reg.Counter(label("secmem.open.ops")),
		openBytes: reg.Counter(label("secmem.open.bytes")),
		authFail:  reg.Counter(label("secmem.auth_failures")),
		replay:    reg.Counter(label("secmem.replay_rejects")),
		rekeys:    reg.Counter(label("secmem.rekeys")),
	}
}

// newAEAD runs the AES key schedule and builds the GCM instance — the
// expensive, key-dependent half of stream construction. GCM AEADs are
// stateless per operation, so one instance may back any number of
// streams over the same key epoch.
func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("secmem: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// NewStream builds a protected stream from a 16-byte key and an 8-byte
// nonce base (unique per stream direction).
func NewStream(key []byte, nonce []byte) (*Stream, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return NewStreamAEAD(aead, nonce)
}

// NewStreamAEAD builds a protected stream around an already-constructed
// AEAD — the KeyStore's per-key-epoch cipher cache hands these out so
// the AES key schedule runs once per Install, not once per Stream call.
// The caller must guarantee the AEAD was built over a KeySize key that
// is unique to this stream's key epoch.
func NewStreamAEAD(aead cipher.AEAD, nonce []byte) (*Stream, error) {
	if aead == nil {
		return nil, errors.New("secmem: nil AEAD")
	}
	if len(nonce) != nonceBase {
		return nil, fmt.Errorf("secmem: nonce base must be %d bytes, got %d", nonceBase, len(nonce))
	}
	s := &Stream{aead: aead}
	copy(s.nonceBase[:], nonce)
	return s, nil
}

// Sealed is one protected chunk: ciphertext, its GCM tag (carried by a
// companion tag packet on the wire) and the counter that fixes its IV
// and its position in the stream.
type Sealed struct {
	Counter    uint32
	Epoch      uint32
	Ciphertext []byte
	Tag        [TagSize]byte
}

// Seal encrypts plaintext with the next counter, binding aad (typically
// the serialized TLP header fields) into the tag. Safe for concurrent
// use: the counter check and increment happen under the stream lock, so
// pipelined in-flight packets can never double-allocate (and therefore
// never reuse) an IV, even at the exhaustion boundary.
func (s *Stream) Seal(plaintext, aad []byte) (*Sealed, error) {
	sealed := new(Sealed)
	if err := s.SealInto(sealed, plaintext, aad); err != nil {
		return nil, err
	}
	return sealed, nil
}

// SealInto is Seal with the result written into a caller-provided
// struct, so per-chunk hot paths (the SC's D2H encrypt loop) keep the
// Sealed on their own stack. Only Ciphertext is freshly allocated — it
// outlives the call as a packet payload.
func (s *Stream) SealInto(sealed *Sealed, plaintext, aad []byte) error {
	return s.SealDst(sealed, plaintext, aad, nil)
}

// SealDst is SealInto with the engine output staged in dst when it has
// capacity for len(plaintext)+TagSize bytes (GCM emits ciphertext and
// tag contiguously; the tag is then split off into sealed.Tag and
// sealed.Ciphertext aliases dst). With nil or an undersized dst the
// engine allocates, exactly like SealInto. Because the ciphertext
// aliases dst and outlives the call as a packet payload, dst must come
// from never-recycled memory (arena.Slab) — never from a Put/Get pool.
func (s *Stream) SealDst(sealed *Sealed, plaintext, aad, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("seal"); err != nil {
			return err
		}
	}
	if s.sendCtr == ^uint32(0) {
		return ErrIVExhausted
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Begin(o.track, "seal",
			obsv.Str("stream", o.name), obsv.I64("bytes", int64(len(plaintext))))
	}
	s.sendCtr++
	c := s.sendCtr
	if s.ivAudit != nil {
		s.ivAudit(s.epoch, c)
	}
	copy(s.ivScratch[:], s.nonceBase[:])
	binary.BigEndian.PutUint32(s.ivScratch[nonceBase:], c)
	out := s.aead.Seal(dst[:0], s.ivScratch[:], plaintext, aad)
	sealed.Counter = c
	sealed.Epoch = s.epoch
	n := len(out) - TagSize
	sealed.Ciphertext = out[:n]
	copy(sealed.Tag[:], out[n:])
	if o := s.obs; o != nil {
		sp.Attr(obsv.U64("ctr", uint64(c)), obsv.U64("epoch", uint64(s.epoch)))
		sp.End()
		o.sealOps.Inc()
		o.sealBytes.Add(uint64(len(plaintext)))
	}
	return nil
}

// Open authenticates and decrypts one chunk, enforcing the
// strictly-increasing counter discipline.
func (s *Stream) Open(sealed *Sealed, aad []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("open"); err != nil {
			return nil, err
		}
	}
	if sealed.Epoch != s.epoch {
		s.obsReplay()
		return nil, fmt.Errorf("%w: epoch %d vs %d", ErrReplay, sealed.Epoch, s.epoch)
	}
	if sealed.Counter <= s.recvCtr {
		s.obsReplay()
		return nil, fmt.Errorf("%w: counter %d after %d", ErrReplay, sealed.Counter, s.recvCtr)
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Begin(o.track, "open",
			obsv.Str("stream", o.name), obsv.I64("bytes", int64(len(sealed.Ciphertext))),
			obsv.U64("ctr", uint64(sealed.Counter)))
	}
	// One arena buffer carries ciphertext||tag plus the IV at its tail;
	// everything in it is public bytes, so Put (not PutZero) on release.
	ctLen := len(sealed.Ciphertext)
	buf := arena.Get(ctLen + TagSize + NonceSize)
	copy(buf, sealed.Ciphertext)
	copy(buf[ctLen:], sealed.Tag[:])
	iv := buf[ctLen+TagSize:]
	copy(iv, s.nonceBase[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], sealed.Counter)
	pt, err := s.aead.Open(nil, iv, buf[:ctLen+TagSize], aad)
	arena.Put(buf)
	if err != nil {
		if o := s.obs; o != nil {
			o.authFail.Inc()
		}
		return nil, ErrAuth
	}
	s.recvCtr = sealed.Counter
	if o := s.obs; o != nil {
		sp.End()
		o.openOps.Inc()
		o.openBytes.Add(uint64(len(pt)))
	}
	return pt, nil
}

// obsReplay counts one replay rejection. Callers hold s.mu.
func (s *Stream) obsReplay() {
	if o := s.obs; o != nil {
		o.replay.Inc()
	}
}

// OpenStateless authenticates and decrypts a chunk that was ALREADY
// accepted once (its counter is at or below the receive watermark)
// without advancing any stream state. This is the duplicate-read
// suppression primitive: a benign retransmit — the device re-fetching a
// chunk after a link fault — re-verifies against the retained tag and
// is re-served, while the strictly-increasing discipline of Open keeps
// rejecting genuinely replayed traffic presented as new data. Chunks
// that were never accepted do not qualify and fail with ErrReplay.
func (s *Stream) OpenStateless(sealed *Sealed, aad []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("open"); err != nil {
			return nil, err
		}
	}
	if sealed.Epoch != s.epoch {
		s.obsReplay()
		return nil, fmt.Errorf("%w: epoch %d vs %d", ErrReplay, sealed.Epoch, s.epoch)
	}
	if sealed.Counter > s.recvCtr {
		s.obsReplay()
		return nil, fmt.Errorf("%w: counter %d never accepted (watermark %d)", ErrReplay, sealed.Counter, s.recvCtr)
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Begin(o.track, "open",
			obsv.Str("stream", o.name), obsv.Str("mode", "stateless"),
			obsv.I64("bytes", int64(len(sealed.Ciphertext))),
			obsv.U64("ctr", uint64(sealed.Counter)))
	}
	// One arena buffer carries ciphertext||tag plus the IV at its tail;
	// everything in it is public bytes, so Put (not PutZero) on release.
	ctLen := len(sealed.Ciphertext)
	buf := arena.Get(ctLen + TagSize + NonceSize)
	copy(buf, sealed.Ciphertext)
	copy(buf[ctLen:], sealed.Tag[:])
	iv := buf[ctLen+TagSize:]
	copy(iv, s.nonceBase[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], sealed.Counter)
	pt, err := s.aead.Open(nil, iv, buf[:ctLen+TagSize], aad)
	arena.Put(buf)
	if err != nil {
		if o := s.obs; o != nil {
			o.authFail.Inc()
		}
		return nil, ErrAuth
	}
	if o := s.obs; o != nil {
		sp.End()
		o.openOps.Inc()
		o.openBytes.Add(uint64(len(pt)))
	}
	return pt, nil
}

// SetFaultHook installs (or clears, with nil) the transient-fault
// injection point consulted before each engine operation.
func (s *Stream) SetFaultHook(fn func(op string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = fn
}

// SetIVAudit installs an observer for every IV (epoch, counter) the
// seal side consumes. Test instrumentation only; it must not block.
func (s *Stream) SetIVAudit(fn func(epoch, counter uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ivAudit = fn
}

// SendCounter reports how many chunks have been sealed.
func (s *Stream) SendCounter() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendCtr
}

// Epoch reports the stream's key epoch.
func (s *Stream) Epoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Remaining reports how many counter values are left before exhaustion.
func (s *Stream) Remaining() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ^uint32(0) - s.sendCtr
}

// Rekey installs a fresh key + nonce base and resets both counters,
// bumping the epoch. This is the paper's IV-exhaustion mitigation
// ("generating and exchanging a new key", following H100 practice).
func (s *Stream) Rekey(key, nonce []byte) error {
	ns, err := NewStream(key, nonce)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aead = ns.aead
	s.nonceBase = ns.nonceBase
	s.sendCtr = 0
	s.recvCtr = 0
	s.epoch++
	if o := s.obs; o != nil {
		o.rekeys.Inc()
		o.tracer.Instant(o.track, "rekey",
			obsv.Str("stream", o.name), obsv.U64("epoch", uint64(s.epoch)))
	}
	return nil
}

// ForceCounter positions the send counter for testing exhaustion paths.
func (s *Stream) ForceCounter(c uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendCtr = c
}

// --- A3 (Write Protected) integrity ---------------------------------------

// MAC computes the plain-integrity code used for Write-Protected packets
// (action A3, Table 1): payload stays in the clear but carries an HMAC
// binding payload and header so bus tampering is detected.
func MAC(key, header, payload []byte) [32]byte {
	m := hmac.New(sha256.New, key)
	m.Write(header)
	m.Write(payload)
	var out [32]byte
	copy(out[:], m.Sum(nil))
	return out
}

// VerifyMAC checks an A3 integrity code in constant time.
func VerifyMAC(key, header, payload []byte, tag [32]byte) bool {
	want := MAC(key, header, payload)
	return hmac.Equal(want[:], tag[:])
}

// Measure hashes arbitrary firmware/bitstream content for the secure
// boot chain (SHA-256, matching the HRoT-Blade's PCR bank).
func Measure(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
