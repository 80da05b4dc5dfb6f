package wire

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// TestGoldenBytes pins the encoding itself: these bytes are on the wire
// between nodes and in wal.log on disk, so a change here is a format
// change, not a refactoring.
func TestGoldenBytes(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 300)
	buf = AppendUint64(buf, 0x0102030405060708)
	buf = AppendBytes(buf, []byte{0xAA, 0xBB})
	buf = AppendString(buf, "op")
	buf = AppendBytes(buf, nil)
	want := []byte{
		0x00,       // uvarint 0
		0xAC, 0x02, // uvarint 300
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // uint64, big endian
		0x02, 0xAA, 0xBB, // bytes: length, then the bytes
		0x02, 'o', 'p', // string: the same
		0x00, // empty bytes: a zero length
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("encoded % x\n   want % x", buf, want)
	}
}

// TestRoundTrip reads back what the append helpers wrote, at the edges
// of every field type.
func TestRoundTrip(t *testing.T) {
	uvarints := []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, math.MaxUint64}
	blobs := [][]byte{nil, {0}, bytes.Repeat([]byte{0xC1}, 200)}
	var buf []byte
	for _, v := range uvarints {
		buf = AppendUvarint(buf, v)
		buf = AppendUint64(buf, v)
	}
	for _, b := range blobs {
		buf = AppendBytes(buf, b)
		buf = AppendString(buf, string(b))
	}
	buf = append(buf, 0x7F)

	r := NewReader(buf)
	for _, v := range uvarints {
		if got := r.Uvarint(); got != v {
			t.Fatalf("Uvarint = %d, want %d", got, v)
		}
		if got := r.Uint64(); got != v {
			t.Fatalf("Uint64 = %d, want %d", got, v)
		}
	}
	for _, b := range blobs {
		if got := r.Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("Bytes = % x, want % x", got, b)
		}
		if got := r.Bytes(); string(got) != string(b) {
			t.Fatalf("Bytes (of a string) = % x, want % x", got, b)
		}
	}
	if r.Done() {
		t.Fatal("Done with a byte left unread")
	}
	if got := r.Byte(); got != 0x7F {
		t.Fatalf("Byte = %#x, want 0x7f", got)
	}
	if !r.Done() {
		t.Fatal("not Done after reading everything back")
	}
}

// TestReaderErrorIsSticky: every kind of short or malformed field
// latches the error, later reads return zero values without panicking,
// and Done stays false.
func TestReaderErrorIsSticky(t *testing.T) {
	cases := map[string]struct {
		buf  []byte
		read func(*Reader)
	}{
		"uvarint cut short":        {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"uvarint past 64 bits":     {bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }},
		"byte of nothing":          {nil, func(r *Reader) { r.Byte() }},
		"uint64 cut short":         {make([]byte, 7), func(r *Reader) { r.Uint64() }},
		"bytes longer than buffer": {[]byte{0x05, 1, 2}, func(r *Reader) { r.Bytes() }},
		"bytes of absurd length":   {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, func(r *Reader) { r.Bytes() }},
		"count beyond what fits":   {[]byte{0x03, 1, 2, 3, 4, 5}, func(r *Reader) { r.Count(2) }},
		"caller's verdict":         {[]byte{0x01}, func(r *Reader) { r.Byte(); r.Fail() }},
	}
	for name, c := range cases {
		r := NewReader(c.buf)
		c.read(&r)
		if r.Done() {
			t.Errorf("%s: Done after a malformed field", name)
		}
		if r.Uvarint() != 0 || r.Byte() != 0 || r.Uint64() != 0 || r.Count(1) != 0 || len(r.Bytes()) != 0 {
			t.Errorf("%s: a read after the error returned a value", name)
		}
		if r.Done() {
			t.Errorf("%s: the error did not stick", name)
		}
	}
}

// TestBytesCannotBeAppendedInto: a decoded byte string aliases the
// message, and growing it must not overwrite the field behind it.
func TestBytesCannotBeAppendedInto(t *testing.T) {
	buf := AppendBytes(AppendBytes(nil, []byte("ab")), []byte("cd"))
	r := NewReader(buf)
	first := r.Bytes()
	_ = append(first, 'X')
	if second := r.Bytes(); string(second) != "cd" {
		t.Fatalf("second field = %q after appending to the first, want \"cd\"", second)
	}
}

// TestInternSharesAndIsBounded: repeated names come back as one string
// without allocating, and an adversarial stream of unique names cannot
// grow the table past its limit.
func TestInternSharesAndIsBounded(t *testing.T) {
	name := []byte("dist.prepare")
	first := Intern(name)
	if allocs := testing.AllocsPerRun(100, func() { Intern(name) }); allocs != 0 {
		t.Fatalf("Intern of a known name allocates %.1f objects", allocs)
	}
	if first != "dist.prepare" || Intern(nil) != "" {
		t.Fatalf("Intern returned %q and %q", first, Intern(nil))
	}
	for i := 0; i < 3*internLimit; i++ {
		unique := []byte(fmt.Sprintf("attack.method.%d", i))
		if got := Intern(unique); got != string(unique) {
			t.Fatalf("Intern(%q) = %q", unique, got)
		}
	}
	interned.RLock()
	size := len(interned.m)
	interned.RUnlock()
	if size > internLimit {
		t.Fatalf("intern table grew to %d entries, bound is %d", size, internLimit)
	}
}

// TestUvarints: a run of varints is handed back as its own encoding,
// capped like Bytes, and a malformed run fails the reader.
func TestUvarints(t *testing.T) {
	buf := AppendUvarint(AppendUvarint(AppendUvarint(nil, 300), 7), 1<<40)
	r := NewReader(append(bytes.Clone(buf), 0xEE))
	got := r.Uvarints(3)
	if !bytes.Equal(got, buf) || cap(got) != len(got) {
		t.Fatalf("Uvarints(3) = % x (cap %d), want % x capped at its length", got, cap(got), buf)
	}
	if r.Byte() != 0xEE || !r.Done() {
		t.Fatal("the reader did not stop behind the third varint")
	}
	r = NewReader(buf[:len(buf)-1])
	if got := r.Uvarints(3); got != nil || r.Done() {
		t.Fatalf("a truncated run decoded to % x", got)
	}
}
