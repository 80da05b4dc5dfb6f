// The envelope wire codec: a CRC32 frame around a fixed header plus
// length-delimited fields, written with internal/wire into a pooled
// buffer, so encoding and decoding allocate nothing in steady state.
// The body inside the envelope is opaque bytes.
package rpc

import (
	"encoding/binary"
	"hash/crc32"
	"sync"

	"mca/internal/ids"
	"mca/internal/wire"
)

// binMagic is the first body byte of an envelope. 0xC1 is not valid
// UTF-8, so text that strays onto the wire is rejected at the first
// byte.
const binMagic byte = 0xC1

// binVersion is the layout version, the second body byte. The decoder
// rejects versions it does not know.
const binVersion byte = 1

// Flag bits of the header's flags byte.
const (
	flagErr   byte = 1 << 0 // envelope carries an error reply
	flagTrace byte = 1 << 1 // envelope carries a trace context
)

// binHeaderLen is the fixed prefix: magic, version, kind, flags, call
// id, origin.
const binHeaderLen = 1 + 1 + 1 + 1 + 8 + 8

// appendEnvelope appends the encoding of env to buf.
//
// Layout (after the CRC32 frame prefix):
//
//	[0]     magic 0xC1
//	[1]     version (1)
//	[2]     kind (1 request, 2 reply)
//	[3]     flags (bit0 error, bit1 trace)
//	[4:12]  call id, big endian
//	[12:20] origin node id, big endian
//	        uvarint method length, method bytes
//	        if trace flag: trace id [8], span id [8], big endian
//	        if error flag: uvarint message length, message bytes
//	        uvarint body length, body bytes
func appendEnvelope(buf []byte, env *envelope) []byte {
	var flags byte
	if env.IsErr {
		flags |= flagErr
	}
	if env.Traced {
		flags |= flagTrace
	}
	buf = append(buf, binMagic, binVersion, byte(env.Kind), flags)
	buf = wire.AppendUint64(buf, env.CallID)
	buf = wire.AppendUint64(buf, uint64(env.Origin))
	buf = wire.AppendString(buf, env.Method)
	if flags&flagTrace != 0 {
		buf = wire.AppendUint64(buf, env.Trace)
		buf = wire.AppendUint64(buf, env.Span)
	}
	if flags&flagErr != 0 {
		buf = wire.AppendString(buf, env.ErrMsg)
	}
	return wire.AppendBytes(buf, env.Body)
}

// decodeEnvelope parses an envelope into env, which must be zero. It is
// strict — unknown versions, unknown flag bits, short fields and
// trailing bytes are all rejected — so a corrupted frame that happens
// to pass the CRC (or a deliberately malformed one) is dropped rather
// than misread. Method is interned (wire.Intern) and Body aliases data, so the caller
// must not reuse data's backing array afterwards; inbound frame buffers
// are owned by their consumer, which makes the alias safe (and the
// decode allocation-free).
func decodeEnvelope(data []byte, env *envelope) bool {
	if len(data) < binHeaderLen || data[0] != binMagic || data[1] != binVersion {
		return false
	}
	k, flags := kind(data[2]), data[3]
	if (k != kindRequest && k != kindReply) || flags&^(flagErr|flagTrace) != 0 {
		return false
	}
	r := wire.NewReader(data[4:])
	env.Kind = k
	env.CallID = r.Uint64()
	env.Origin = ids.NodeID(r.Uint64())
	env.Method = wire.Intern(r.Bytes())
	if flags&flagTrace != 0 {
		env.Traced = true
		env.Trace = r.Uint64()
		env.Span = r.Uint64()
	}
	if flags&flagErr != 0 {
		env.IsErr = true
		env.ErrMsg = string(r.Bytes())
	}
	if body := r.Bytes(); len(body) > 0 {
		env.Body = body
	}
	return r.Done()
}

// --- pooled frame buffers ---

// framePool recycles encode buffers on the send path: one buffer covers
// the CRC prefix and the envelope, so an entire send is a single
// (pool-amortised) allocation-free append chain. Buffers above
// framePoolMax are not returned — one huge body must not pin memory in
// the pool forever.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const framePoolMax = 64 << 10

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > framePoolMax {
		return
	}
	framePool.Put(bp)
}

// encodeFrame encodes env into bp's backing array (growing it as needed,
// and recording the growth in *bp so the pool keeps it) and returns the
// complete CRC-framed wire bytes: a CRC32 of the envelope, big endian,
// then the envelope, so corrupted datagrams (flipped bits on the
// simulated LAN) are detected and dropped rather than decoded into
// garbage. The result aliases *bp: it is valid until bp is reused or
// returned to the pool.
func encodeFrame(bp *[]byte, env *envelope) []byte {
	buf := append((*bp)[:0], 0, 0, 0, 0) // CRC placeholder
	buf = appendEnvelope(buf, env)
	binary.BigEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(buf[4:]))
	*bp = buf
	return buf
}

// verifyFrame checks and strips the checksum prefix.
func verifyFrame(data []byte) ([]byte, bool) {
	if len(data) < 4 {
		return nil, false
	}
	want := binary.BigEndian.Uint32(data[:4])
	body := data[4:]
	if crc32.ChecksumIEEE(body) != want {
		return nil, false
	}
	return body, true
}
