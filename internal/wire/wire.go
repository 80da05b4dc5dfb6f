// Package wire is the repository's one binary field encoder. The RPC
// envelope (internal/rpc), the 2PC message bodies (internal/dist), the
// stable-store log records (internal/store) and the states of
// reference-free objects (internal/object) are each a fixed header
// followed by fields in this package's vocabulary:
//
//   - uvarint: an unsigned integer in the encoding/binary varint form;
//   - uint64, uint32: eight or four bytes, big endian, for fields at a
//     fixed offset and for the bits of floating-point numbers;
//   - bytes/string: a uvarint length, then that many bytes.
//
// Encoding is a chain of Append calls onto a caller-owned buffer, so a
// pooled or stack buffer makes it allocation-free. Decoding goes through
// Reader, whose error is sticky: the first malformed field latches it,
// every later read returns zero, and the caller checks once at the end.
// Intern turns the short names messages repeat into shared strings.
// Framing, checksums and record kinds stay with the packages that own
// them; wire knows nothing about time, randomness or I/O.
package wire

import (
	"encoding/binary"
	"sync"
)

// AppendUvarint appends v in varint form.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendUint64 appends v as eight big-endian bytes.
func AppendUint64(buf []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(buf, v) }

// AppendUint32 appends v as four big-endian bytes.
func AppendUint32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }

// AppendBytes appends b behind its uvarint length.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// AppendString appends s behind its uvarint length.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Reader decodes fields off the front of a buffer. Byte strings it
// returns alias the buffer.
type Reader struct {
	buf []byte
	bad bool
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Fail latches the reader's error, as the caller does on finding a field
// value its format forbids. The rest of the buffer is dropped, which is
// what makes every later read come back zero.
func (r *Reader) Fail() { r.buf, r.bad = nil, true }

// Done reports a clean, complete decode: no malformed field, and no
// bytes left over.
func (r *Reader) Done() bool { return !r.bad && len(r.buf) == 0 }

// Len returns how many bytes are left to read, for a format whose last
// field is optional.
func (r *Reader) Len() int { return len(r.buf) }

// Uvarint reads one varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Uvarints reads n varints and returns their encoding, aliasing the
// buffer, for a caller that walks the list later, in place. It is nil
// when any of them is malformed.
func (r *Reader) Uvarints(n int) []byte {
	start := r.buf
	for range n {
		r.Uvarint()
	}
	if r.bad {
		return nil
	}
	n = len(start) - len(r.buf)
	return start[:n:n]
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Uint64 reads eight big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.buf) < 8 {
		r.Fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Uint32 reads four big-endian bytes.
func (r *Reader) Uint32() uint32 {
	if len(r.buf) < 4 {
		r.Fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

// Count reads an element count and rejects one the remaining bytes
// cannot hold, each element taking at least min bytes, so a hostile
// count never sizes an allocation.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/min) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the
// buffer, capped at its own length so an append cannot reach the bytes
// behind it.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// interned maps name bytes to a canonical string, so decoding the names
// every message repeats — RPC methods, resources, operations — allocates
// no string per message in steady state. The table is bounded: names
// arrive off the network, and an adversarial stream of unique ones must
// not grow it without limit.
var interned = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

const internLimit = 1024

// Intern returns b as a string, shared with every earlier Intern of the
// same bytes while the table has room.
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	interned.RLock()
	s, ok := interned.m[string(b)] // no alloc: compiler-recognised []byte map key
	interned.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	interned.Lock()
	if len(interned.m) < internLimit {
		interned.m[s] = s
	}
	interned.Unlock()
	return s
}
