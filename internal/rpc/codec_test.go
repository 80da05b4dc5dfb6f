package rpc

import (
	"bytes"
	"reflect"
	"testing"
)

// codecCases spans the envelope shapes the wire carries: requests and
// replies, with and without trace context, error replies, empty bodies.
func codecCases() []envelope {
	return []envelope{
		{Kind: kindRequest, CallID: 1, Origin: 2, Method: "echo", Body: []byte(`{"text":"hi"}`)},
		{Kind: kindReply, CallID: 1, Origin: 3, Body: []byte(`{"text":"hi"}`)},
		{Kind: kindReply, CallID: 9, Origin: 3, IsErr: true, ErrMsg: "application broke"},
		{Kind: kindRequest, CallID: 1 << 60, Origin: 2, Method: "dist.prepare",
			Body: []byte(`{"txn":42}`), Traced: true, Trace: 0xDEADBEEF, Span: 0xCAFE},
		{Kind: kindReply, CallID: 7, Origin: 1, IsErr: true, ErrMsg: "no handler",
			Traced: true, Trace: 1, Span: 2},
		{Kind: kindRequest, CallID: 5, Origin: 6, Method: ""},
	}
}

// TestEnvelopeBinaryRoundTrip checks decode(encode(env)) == env for
// every envelope shape, through the full CRC frame path.
func TestEnvelopeBinaryRoundTrip(t *testing.T) {
	for i, env := range codecCases() {
		bp := getFrameBuf()
		body, ok := verifyFrame(encodeFrame(bp, &env))
		if !ok {
			t.Fatalf("case %d: frame failed own CRC", i)
		}
		var dec envelope
		if !decodeEnvelope(body, &dec) {
			t.Fatalf("case %d: decode failed", i)
		}
		if !reflect.DeepEqual(dec, env) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, dec, env)
		}
		putFrameBuf(bp)
	}
}

// TestBinaryDecodeTruncated feeds the decoder every prefix of a valid
// binary envelope: all must be cleanly rejected (no panic, no partial
// acceptance — the format is self-delimiting end to end).
func TestBinaryDecodeTruncated(t *testing.T) {
	env := envelope{Kind: kindRequest, CallID: 42, Origin: 7, Method: "echo",
		Body: []byte(`{"x":1}`), Traced: true, Trace: 3, Span: 4}
	full := appendEnvelope(nil, &env)
	for n := 0; n < len(full); n++ {
		var dec envelope
		if ok := decodeEnvelope(full[:n], &dec); ok {
			t.Fatalf("decode accepted %d-byte truncation of a %d-byte envelope", n, len(full))
		}
	}
}

// TestBinaryDecodeTrailingBytes: extra bytes after a valid envelope are
// rejected (strictness guards against framing bugs and smuggled data).
func TestBinaryDecodeTrailingBytes(t *testing.T) {
	env := envelope{Kind: kindReply, CallID: 1, Origin: 2}
	data := appendEnvelope(nil, &env)
	data = append(data, 0x00)
	var dec envelope
	if decodeEnvelope(data, &dec) {
		t.Fatal("decode accepted an envelope with trailing bytes")
	}
}

// TestBinaryDecodeBadHeader rejects unknown versions, kinds and flags.
func TestBinaryDecodeBadHeader(t *testing.T) {
	env := envelope{Kind: kindRequest, CallID: 1, Origin: 2, Method: "m"}
	good := appendEnvelope(nil, &env)
	mutations := map[string]func([]byte){
		"version": func(b []byte) { b[1] = binVersion + 1 },
		"kind":    func(b []byte) { b[2] = 0x7F },
		"flags":   func(b []byte) { b[3] |= 1 << 7 },
		"magic":   func(b []byte) { b[0] = '{' },
	}
	for name, mutate := range mutations {
		data := bytes.Clone(good)
		mutate(data)
		var dec envelope
		if decodeEnvelope(data, &dec) {
			t.Fatalf("decode accepted envelope with corrupted %s byte", name)
		}
	}
}

// TestBinaryDecodeBitFlips flips every bit of a framed envelope in turn:
// the CRC verify plus the strict decoder must never panic, and a flip
// that slips past the CRC (none should) must not be accepted silently.
func TestBinaryDecodeBitFlips(t *testing.T) {
	env := envelope{Kind: kindRequest, CallID: 99, Origin: 5, Method: "dist.commit",
		Body: []byte(`{"txn":9}`)}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	framed := encodeFrame(bp, &env)
	for i := 0; i < len(framed)*8; i++ {
		data := bytes.Clone(framed)
		data[i/8] ^= 1 << (i % 8)
		body, ok := verifyFrame(data)
		if !ok {
			continue // CRC caught it, the normal outcome
		}
		// A single bit flip always changes the CRC32 of body or the
		// stored checksum, so passing verification means the flip was
		// inside... nothing: it cannot happen. Decode defensively anyway.
		var dec envelope
		decodeEnvelope(body, &dec)
		t.Fatalf("bit flip %d passed CRC verification", i)
	}
}

// TestEnvelopeCodecAllocs is the allocs-regression gate: the binary
// envelope round-trip (encode into a pooled frame, CRC verify, strict
// decode) must stay allocation-free in steady state.
func TestEnvelopeCodecAllocs(t *testing.T) {
	env := benchEnvelope()
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	allocs := testing.AllocsPerRun(2000, func() {
		body, ok := verifyFrame(encodeFrame(bp, &env))
		if !ok {
			t.Fatal("framed envelope failed its own CRC")
		}
		var dec envelope
		if !decodeEnvelope(body, &dec) || dec.CallID != env.CallID || dec.Method != env.Method {
			t.Fatal("envelope round trip mismatch")
		}
	})
	t.Logf("envelope encode+verify+decode: %.3f allocs/op", allocs)
	if allocs >= 1 {
		t.Fatalf("envelope round trip allocates %.2f objects/op, want ~0", allocs)
	}
}

// BenchmarkEnvelopeEncode measures the envelope encode hot path.
func BenchmarkEnvelopeEncode(b *testing.B) {
	env := benchEnvelope()
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeFrame(bp, &env)
	}
}

// BenchmarkEnvelopeRoundTrip measures encode+verify+decode.
func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	env := benchEnvelope()
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, ok := verifyFrame(encodeFrame(bp, &env))
		if !ok {
			b.Fatal("frame failed own CRC")
		}
		var dec envelope
		if !decodeEnvelope(body, &dec) {
			b.Fatal("decode failed")
		}
	}
}

func benchEnvelope() envelope {
	return envelope{Kind: kindRequest, CallID: 0x12345678, Origin: 7, Method: "dist.prepare",
		Body:   []byte(`{"txn":42,"op":"transfer","amount":10}`),
		Traced: true, Trace: 0xDEADBEEF, Span: 0xCAFE}
}
