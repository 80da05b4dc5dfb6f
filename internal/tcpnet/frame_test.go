package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"mca/internal/ids"
	"mca/internal/rpc"
)

// wireFrame encodes one frame as Send puts it on the wire.
func wireFrame(from ids.NodeID, payload []byte) []byte {
	return slices.Clone(*stageFrame(from, payload))
}

// feed parses stream with a fresh parser, each read as long as the room
// the parser offers allows and at most the next of cuts (cycling; none
// means no limit). It returns the frames, the parse error, and the most
// the parser held for a frame in chunks beyond the bytes it had received.
func feed(stream []byte, cuts []int) (frames []rpc.Datagram, err error, ahead int) {
	p := parser{buf: make([]byte, readChunk)}
	for i := 0; len(stream) > 0; i++ {
		space := p.space()
		if len(space) == 0 {
			panic("parser offers no room")
		}
		n := min(len(space), len(stream))
		if len(cuts) > 0 {
			n = min(n, cuts[i%len(cuts)])
		}
		copy(space, stream[:n])
		stream = stream[n:]
		if err := p.parse(n, func(d rpc.Datagram) { frames = append(frames, d) }); err != nil {
			return frames, err, ahead
		}
		held := 0
		for _, c := range p.chunks {
			held += cap(c)
		}
		ahead = max(ahead, held-p.got)
	}
	return frames, nil, ahead
}

func sameFrames(a, b []rpc.Datagram) bool {
	return slices.EqualFunc(a, b, func(x, y rpc.Datagram) bool {
		return x.From == y.From && bytes.Equal(x.Payload, y.Payload)
	})
}

// TestReadPayloadSizes round-trips payloads below, at and above the
// chunk size and the read buffer through the frame parser, read whole
// and a byte at a time.
func TestReadPayloadSizes(t *testing.T) {
	for _, size := range []int{0, 1, readChunk - frameHeaderLen, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 17} {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i)
		}
		stream := wireFrame(7, want)
		for _, cuts := range [][]int{nil, {1}} {
			got, err, ahead := feed(stream, cuts)
			if err != nil {
				t.Fatalf("size %d, cuts %v: %v", size, cuts, err)
			}
			if len(got) != 1 || got[0].From != 7 || !bytes.Equal(got[0].Payload, want) {
				t.Fatalf("size %d, cuts %v: %d frames, want the one sent", size, cuts, len(got))
			}
			if ahead > readChunk {
				t.Fatalf("size %d, cuts %v: held %d bytes ahead of those received, want at most %d", size, cuts, ahead, readChunk)
			}
		}
	}
}

// TestReadPayloadTruncated feeds a length prefix far larger than the
// bytes that ever arrive: the parser delivers nothing and holds at most
// one readChunk beyond what came, not the 16 MiB claimed. A prefix above
// the frame limit fails the connection at once.
func TestReadPayloadTruncated(t *testing.T) {
	stream := binary.BigEndian.AppendUint32(nil, maxFrame)
	stream = binary.BigEndian.AppendUint64(stream, 7)
	stream = append(stream, bytes.Repeat([]byte("x"), 3*readChunk)...)
	for _, cuts := range [][]int{nil, {100}, {1, 5000}} {
		got, err, ahead := feed(stream, cuts)
		if err != nil || len(got) != 0 {
			t.Fatalf("cuts %v: %d frames, %v; want none and no error", cuts, len(got), err)
		}
		if ahead > readChunk {
			t.Fatalf("cuts %v: held %d bytes ahead of those received, want at most %d", cuts, ahead, readChunk)
		}
	}

	bad := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	bad = binary.BigEndian.AppendUint64(bad, 7)
	if _, err, _ := feed(bad, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("a length prefix above the limit = %v, want ErrTooLarge", err)
	}
}

// TestParserSplitsAtEveryByte cuts a stream of frames into two reads at
// every byte boundary, and into single bytes: each parses to the frames
// of the whole stream, in order.
func TestParserSplitsAtEveryByte(t *testing.T) {
	var stream []byte
	for i, size := range []int{0, 1, 11, 12, 13, 300, 2} {
		stream = append(stream, wireFrame(ids.NodeID(i+1), bytes.Repeat([]byte{byte(i)}, size))...)
	}
	want, err, _ := feed(stream, nil)
	if err != nil || len(want) != 7 {
		t.Fatalf("whole stream: %d frames, %v; want 7", len(want), err)
	}
	for k := 1; k < len(stream); k++ {
		if got, err, _ := feed(stream, []int{k, len(stream)}); err != nil || !sameFrames(got, want) {
			t.Fatalf("cut at byte %d: %d frames, %v; want the whole stream's %d", k, len(got), err, len(want))
		}
	}
	if got, err, _ := feed(stream, []int{1}); err != nil || !sameFrames(got, want) {
		t.Fatalf("byte at a time: %d frames, %v; want %d", len(got), err, len(want))
	}
}

// TestParserManyFramesInOneRead hands the parser a whole batch in one
// read, as one writev of many frames arrives: every frame is delivered
// from the one parse call, in order.
func TestParserManyFramesInOneRead(t *testing.T) {
	var stream []byte
	for i := range 500 {
		stream = append(stream, wireFrame(3, []byte{byte(i), byte(i >> 8)})...)
	}
	p := parser{buf: make([]byte, readChunk)}
	n := copy(p.space(), stream)
	if n != len(stream) {
		t.Fatalf("batch of %d bytes does not fit the read buffer", len(stream))
	}
	var got []rpc.Datagram
	if err := p.parse(n, func(d rpc.Datagram) { got = append(got, d) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("one read delivered %d frames, want 500", len(got))
	}
	for i, d := range got {
		if d.From != 3 || d.Payload[0] != byte(i) || d.Payload[1] != byte(i>>8) {
			t.Fatalf("frame %d = %+v", i, d)
		}
	}
	if p.n != 0 {
		t.Fatalf("%d bytes left unparsed, want 0", p.n)
	}
}

// FuzzFrameStream: any byte stream, cut at any points, parses to the same
// frames (and the same failure) as the whole stream, and the parser never
// holds more than one readChunk beyond the bytes received.
func FuzzFrameStream(f *testing.F) {
	var valid []byte
	for i, size := range []int{0, 5, 40, 1} {
		valid = append(valid, wireFrame(ids.NodeID(i+1), bytes.Repeat([]byte{0xab}, size))...)
	}
	f.Add(valid, []byte{3, 1, 200})
	f.Add(wireFrame(9, bytes.Repeat([]byte("big"), readChunk/2)), []byte{255, 7})
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), valid...), []byte{1})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1), []byte{})
	f.Fuzz(func(t *testing.T, stream, cutBytes []byte) {
		var cuts []int
		for _, c := range cutBytes {
			cuts = append(cuts, int(c)+1)
		}
		want, wantErr, ahead := feed(stream, nil)
		got, err, aheadCut := feed(stream, cuts)
		if !sameFrames(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("cut stream: %d frames, %v; whole stream: %d frames, %v", len(got), err, len(want), wantErr)
		}
		if max(ahead, aheadCut) > readChunk {
			t.Fatalf("held %d bytes ahead of those received, want at most %d", max(ahead, aheadCut), readChunk)
		}
	})
}
