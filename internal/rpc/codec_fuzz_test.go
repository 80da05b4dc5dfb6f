package rpc

import (
	"bytes"
	"testing"

	"mca/internal/ids"
)

// FuzzEnvelopeDecode throws arbitrary bytes at the wire decoder: it
// must never panic, and anything it accepts must re-encode to bytes it
// accepts again with identical fields (decode∘encode is idempotent).
// The seed corpus covers every envelope shape plus the adversarial
// edges; testdata/fuzz holds regression inputs.
func FuzzEnvelopeDecode(f *testing.F) {
	// Valid envelopes of each shape.
	for _, env := range []envelope{
		{Kind: kindRequest, CallID: 1, Origin: 2, Method: "echo", Body: []byte(`{"text":"hi"}`)},
		{Kind: kindReply, CallID: 9, Origin: 3, IsErr: true, ErrMsg: "boom"},
		{Kind: kindRequest, CallID: 1 << 60, Origin: 2, Method: "dist.prepare",
			Body: []byte(`{"txn":42}`), Traced: true, Trace: 0xDEADBEEF, Span: 0xCAFE},
	} {
		f.Add(appendEnvelope(nil, &env))
	}
	// A JSON envelope, the format this codec replaced: rejected.
	f.Add([]byte(`{"kind":1,"callId":7,"origin":3,"method":"echo","body":{"text":"x"}}`))
	// Adversarial edges: truncated header, huge uvarint length, wrong
	// version, empty input.
	f.Add([]byte{binMagic, binVersion, 1})
	f.Add([]byte{binMagic, binVersion, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{binMagic, binVersion + 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var env envelope
		if !decodeEnvelope(data, &env) {
			return // rejected: nothing further to hold invariant
		}
		reencoded := appendEnvelope(nil, &env)
		var again envelope
		if ok := decodeEnvelope(reencoded, &again); !ok {
			t.Fatalf("re-encode of accepted envelope rejected: %+v", env)
		}
		if env.Kind != again.Kind || env.CallID != again.CallID ||
			env.Origin != again.Origin || env.Method != again.Method ||
			env.IsErr != again.IsErr || env.ErrMsg != again.ErrMsg ||
			env.Traced != again.Traced || env.Trace != again.Trace || env.Span != again.Span ||
			!bytes.Equal(env.Body, again.Body) {
			t.Fatalf("decode/encode/decode drift:\n got %+v\nwant %+v", again, env)
		}
	})
}

// FuzzEnvelopeRoundTrip generates envelopes from fuzzed fields and
// checks decode(encode(env)) == env through the CRC frame.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint64(2), "echo", []byte(`{"x":1}`), false, "", uint64(0), uint64(0))
	f.Add(uint8(2), uint64(1)<<60, uint64(7), "dist.prepare", []byte(nil), true, "boom", uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, k uint8, callID, origin uint64, method string, body []byte, isErr bool, errMsg string, traceID, spanID uint64) {
		if k != 1 && k != 2 {
			return // only valid kinds encode
		}
		env := envelope{
			Kind:   kind(k),
			CallID: callID,
			Origin: ids.NodeID(origin),
			Method: method,
			IsErr:  isErr,
			ErrMsg: errMsg,
		}
		if len(body) > 0 {
			env.Body = body
		}
		if traceID != 0 || spanID != 0 {
			env.Traced = true
			env.Trace, env.Span = traceID, spanID
		}
		bp := getFrameBuf()
		defer putFrameBuf(bp)
		payload, ok := verifyFrame(encodeFrame(bp, &env))
		if !ok {
			t.Fatal("frame failed own CRC")
		}
		var dec envelope
		if !decodeEnvelope(payload, &dec) {
			t.Fatalf("decode failed for %+v", env)
		}
		// IsErr false with a non-empty ErrMsg cannot round-trip (the
		// message only ships under the error flag); the encoder never
		// produces that combination from real envelopes.
		if !isErr {
			dec.ErrMsg, env.ErrMsg = "", ""
		}
		if env.Kind != dec.Kind || env.CallID != dec.CallID ||
			env.Origin != dec.Origin || env.Method != dec.Method ||
			env.IsErr != dec.IsErr || env.ErrMsg != dec.ErrMsg ||
			env.Traced != dec.Traced || env.Trace != dec.Trace || env.Span != dec.Span ||
			!bytes.Equal(env.Body, dec.Body) {
			t.Fatalf("round trip drift:\n got %+v\nwant %+v", dec, env)
		}
	})
}
