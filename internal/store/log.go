// The on-disk form of a file-backed stable store: one append-only log,
// wal.log, holding every durable fact of the node in the order it became
// durable — object batches, intention records and forgets. The object
// states and the intention index in memory are a replay of this file,
// so there is no second structure (journal, per-object files) that a
// crash could leave disagreeing with it.
//
// Layout: one format-version byte, then frames
//
//	[len u32 LE][crc u32 LE][payload: kind byte + body]
//
// where crc is CRC-32C over the length bytes and the payload, so a
// flipped length is caught like any other flipped bit. Bodies are
// written with internal/wire: integers are uvarints, object states are
// length-prefixed byte strings.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/wire"
)

// Log telemetry, exported under mca_store_*.
var (
	logBytes = metrics.Default().Gauge("mca_store_log_bytes",
		"Bytes held by the stable-store logs open in this process.")
	logCompactions = metrics.Default().Counter("mca_store_compactions_total",
		"Stable-store log compactions (checkpoint rewrites).")
	logReplayRecords = metrics.Default().Counter("mca_store_replay_records_total",
		"Log records replayed into memory on open and recovery.")
)

const (
	walFilename = "wal.log"
	// logVersion is the first byte of the file. It differs from '{', the
	// first byte of the JSON-lines log this format replaced; version 1
	// intentions carried a trace identity.
	logVersion byte = 2
	// logHeaderLen is the frame header: payload length and checksum.
	logHeaderLen = 8
	// maxLogRecord bounds one record's payload. A length beyond it is
	// garbage, not a record.
	maxLogRecord = 64 << 20
	// walCompactMin is the smallest log size worth compacting.
	walCompactMin = 256 << 10
	// checkpointChunk is the payload size at which compaction closes one
	// checkpoint batch record and starts the next; the rename, not the
	// record, makes the checkpoint atomic.
	checkpointChunk = 1 << 20
)

// logKind discriminates log records.
type logKind byte

const (
	kindIntention logKind = 1 // store (or overwrite) an intention
	kindForget    logKind = 2 // remove an intention
	kindBatch     logKind = 3 // install an object batch, atomically
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum is the checksum stored in a frame's header: CRC-32C over
// the length bytes and the payload.
func frameChecksum(frame []byte) uint32 {
	crc := crc32.Update(0, castagnoli, frame[:4])
	return crc32.Update(crc, castagnoli, frame[logHeaderLen:])
}

var (
	// errLogTorn marks bytes that are not a whole, checksummed frame:
	// what an append interrupted by a crash leaves behind. Replay treats
	// it as the end of the durable log.
	errLogTorn = errors.New("store: torn log record")
	// errLogCorrupt marks a frame whose checksum holds but whose payload
	// is not a record this version wrote.
	errLogCorrupt = errors.New("store: corrupt log record")
)

// logRecord is one record of the log, and one entry of a group-commit
// batch.
type logRecord struct {
	kind   logKind
	action ids.ActionID // kindIntention, kindForget
	in     Intention    // kindIntention
	batch  Batch        // kindBatch
	// noInstall leaves a forced batch out of the object cache, which
	// took it already (ApplyBatchLazy).
	noInstall bool
}

// installs returns the object batch the record puts into the object
// states, on the live path once forced and on replay at its place in the
// log: an object batch itself, and the write set of a committed
// intention. A commit decision and the write set it decides on are thus
// one record under one force — what a one-phase commit logs — and replay
// needs no redo pass to finish a decided write set.
func (r *logRecord) installs() (Batch, bool) {
	switch {
	case r.kind == kindBatch && !r.noInstall:
		return r.batch, true
	case r.kind == kindIntention && r.in.Status == IntentionCommitted && !r.in.Writes.Empty():
		return r.in.Writes, true
	}
	return Batch{}, false
}

func appendBatchBody(buf []byte, b Batch) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(b.Writes)))
	for id, st := range b.Writes {
		buf = wire.AppendUvarint(buf, uint64(id))
		buf = wire.AppendBytes(buf, st)
	}
	buf = wire.AppendUvarint(buf, uint64(len(b.Deletes)))
	for _, id := range b.Deletes {
		buf = wire.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// appendLogRecord appends the record's frame to buf.
func appendLogRecord(buf []byte, r *logRecord) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, byte(r.kind))
	switch r.kind {
	case kindIntention:
		in := &r.in
		buf = wire.AppendUvarint(buf, uint64(in.Action))
		buf = append(buf, byte(in.Status))
		buf = wire.AppendUvarint(buf, uint64(in.Coordinator))
		buf = wire.AppendUvarint(buf, uint64(len(in.Participants)))
		for _, p := range in.Participants {
			buf = wire.AppendUvarint(buf, uint64(p))
		}
		buf = appendBatchBody(buf, in.Writes)
	case kindForget:
		buf = wire.AppendUvarint(buf, uint64(r.action))
	case kindBatch:
		buf = appendBatchBody(buf, r.batch)
	}
	n := len(buf) - start - logHeaderLen
	if n > maxLogRecord {
		return buf[:start], fmt.Errorf("store: log record of %d bytes exceeds the %d byte limit", n, maxLogRecord)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], frameChecksum(buf[start:]))
	return buf, nil
}

// readBatch decodes what appendBatchBody wrote. States alias the
// reader's buffer.
func readBatch(r *wire.Reader) Batch {
	var b Batch
	if n := r.Count(2); n > 0 {
		b.Writes = make(map[ids.ObjectID]State, n)
		for i := 0; i < n; i++ {
			id := ids.ObjectID(r.Uvarint())
			b.Writes[id] = State(r.Bytes())
		}
	}
	if n := r.Count(1); n > 0 {
		b.Deletes = make([]ids.ObjectID, n)
		for i := range b.Deletes {
			b.Deletes[i] = ids.ObjectID(r.Uvarint())
		}
	}
	return b
}

// decodeLogRecord decodes the frame at the front of buf and returns it
// with the frame's length. States in the record alias buf. The error is
// errLogTorn for anything short of a whole checksummed frame and
// errLogCorrupt for a checksummed frame that is not a valid record.
func decodeLogRecord(buf []byte) (logRecord, int, error) {
	if len(buf) < logHeaderLen {
		return logRecord{}, 0, errLogTorn
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n == 0 || n > maxLogRecord || n > len(buf)-logHeaderLen {
		return logRecord{}, 0, errLogTorn
	}
	end := logHeaderLen + n
	if frameChecksum(buf[:end]) != binary.LittleEndian.Uint32(buf[4:]) {
		return logRecord{}, 0, errLogTorn
	}
	rec := logRecord{kind: logKind(buf[logHeaderLen])}
	r := wire.NewReader(buf[logHeaderLen+1 : end])
	switch rec.kind {
	case kindIntention:
		in := &rec.in
		in.Action = ids.ActionID(r.Uvarint())
		in.Status = IntentionStatus(r.Byte())
		in.Coordinator = ids.NodeID(r.Uvarint())
		if np := r.Count(1); np > 0 {
			in.Participants = make([]ids.NodeID, np)
			for i := range in.Participants {
				in.Participants[i] = ids.NodeID(r.Uvarint())
			}
		}
		in.Writes = readBatch(&r)
		if in.Status < IntentionPrepared || in.Status > IntentionAborted {
			r.Fail()
		}
		rec.action = in.Action
	case kindForget:
		rec.action = ids.ActionID(r.Uvarint())
	case kindBatch:
		rec.batch = readBatch(&r)
	default:
		return logRecord{}, 0, fmt.Errorf("%w: unknown kind %d", errLogCorrupt, rec.kind)
	}
	if !r.Done() {
		return logRecord{}, 0, fmt.Errorf("%w: malformed kind-%d body", errLogCorrupt, rec.kind)
	}
	return rec, end, nil
}

// logImage is what a log replays to: the object states and the live
// intentions.
type logImage struct {
	data  map[ids.ObjectID]State
	index map[ids.ActionID]Intention
}

func (img *logImage) apply(r *logRecord) {
	switch r.kind {
	case kindIntention:
		img.index[r.action] = r.in
	case kindForget:
		delete(img.index, r.action)
	}
	if b, ok := r.installs(); ok {
		for id, st := range b.Writes {
			img.data[id] = st
		}
		for _, id := range b.Deletes {
			delete(img.data, id)
		}
	}
}

// replayLog replays the bytes of a log file, version byte included, and
// returns the image with the length of the valid prefix. Replay ends at a
// torn tail: nothing from the first bad frame on was acknowledged as
// durable. A bad frame that a whole, checksummed one follows is taken for
// damage in the middle of the log, and so is a checksummed frame that does
// not decode: both are errors naming the offset. A crash that persisted a
// later frame of an unforced append but not an earlier one is refused
// too; the log records no forced-batch boundary to tell it apart.
func replayLog(file []byte) (*logImage, int, error) {
	img := &logImage{data: make(map[ids.ObjectID]State), index: make(map[ids.ActionID]Intention)}
	if len(file) == 0 {
		return img, 0, nil
	}
	if file[0] != logVersion {
		return nil, 0, fmt.Errorf("store: %s has format byte %#x, want version %d (a JSON-lines log of the per-object-file layout is not readable by this version)", walFilename, file[0], logVersion)
	}
	off, records := 1, uint64(0)
	for off < len(file) {
		rec, n, err := decodeLogRecord(file[off:])
		if errors.Is(err, errLogTorn) {
			if next := nextFrame(file, off+1); next > 0 {
				return nil, 0, fmt.Errorf("replay %s: damaged frame at offset %d, followed by a whole frame at offset %d: %w", walFilename, off, next, errLogCorrupt)
			}
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replay %s at offset %d: %w", walFilename, off, err)
		}
		img.apply(&rec)
		off += n
		records++
	}
	logReplayRecords.Add(records)
	// Records alias the file buffer; copy what stayed live so the image
	// does not pin it.
	for id, st := range img.data {
		img.data[id] = cloneState(st)
	}
	for a, in := range img.index {
		in.Writes = cloneBatch(in.Writes)
		img.index[a] = in
	}
	return img, off, nil
}

// nextFrame returns the offset of the first whole, checksummed frame in
// file at or after from, 0 when there is none.
func nextFrame(file []byte, from int) int {
	for off := from; off+logHeaderLen <= len(file); off++ {
		if _, _, err := decodeLogRecord(file[off:]); !errors.Is(err, errLogTorn) {
			return off
		}
	}
	return 0
}

// syncDir forces the directory entry changes of a preceding create or
// rename to disk. Without it a "forced" file is only durable as
// *content*: the directory entry pointing at it can still vanish on
// power loss, undoing the rename.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	dirSyncs.Add(1)
	return nil
}

// dirSyncs counts successful directory fsyncs, so tests can assert the
// durability path actually pins its renames — and that the commit path
// performs none.
var dirSyncs atomic.Uint64

// fileSyncs counts successful log-file fsyncs, so tests can pin how many
// forces a commit step pays.
var fileSyncs atomic.Uint64

// logFile is the open log of one stable store. It is not safe for
// concurrent use: the WAL serialises forces, compaction and replay.
type logFile struct {
	dir  string
	path string
	f    *os.File
	size int64
	// compactAt is the size threshold that triggers a compaction.
	compactAt int64
	// failed latches the first append or fsync error. After a failed
	// fsync the kernel may have dropped the dirty pages, so nothing
	// appended later could be trusted to follow durable bytes; the log
	// refuses work until a replay re-establishes its end.
	failed error
}

// checkNoLegacyLayout refuses a directory written by the per-object-file
// store this log replaced: opening it would silently present an empty
// store.
func checkNoLegacyLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("open stable store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == "journal.pending" || (strings.HasPrefix(name, "obj-") && strings.HasSuffix(name, ".state")) {
			return fmt.Errorf("open stable store: %s holds %s, the per-object-file layout this version no longer reads; refusing to open it as an empty store", dir, name)
		}
	}
	return nil
}

// openLogFile opens (creating if needed) the log in dir, replays it and
// cuts a torn tail, so later appends follow the last valid record. It
// reports whether a torn tail was cut.
func openLogFile(dir string) (*logFile, *logImage, bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, false, fmt.Errorf("open stable store: %w", err)
	}
	if err := checkNoLegacyLayout(dir); err != nil {
		return nil, nil, false, err
	}
	path := filepath.Join(dir, walFilename)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("open log: %w", err)
	}
	lf := &logFile{dir: dir, path: path, f: f, compactAt: walCompactMin}
	img, truncated, err := lf.replay()
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return lf, img, truncated, nil
}

// replay rebuilds the image from the file and re-establishes the log's
// end: a torn tail is truncated and forced away, an empty file gets its
// version byte. It reports whether a torn tail was cut.
func (lf *logFile) replay() (*logImage, bool, error) {
	file, err := os.ReadFile(lf.path)
	if err != nil {
		return nil, false, fmt.Errorf("read log: %w", err)
	}
	img, valid, err := replayLog(file)
	if err != nil {
		return nil, false, err
	}
	truncated := valid < len(file)
	switch {
	case len(file) == 0:
		// A new log: the version byte and the directory entry must be
		// durable before any record is acknowledged.
		if _, err := lf.f.Write([]byte{logVersion}); err != nil {
			return nil, false, fmt.Errorf("initialise log: %w", err)
		}
		valid = 1
		if err := lf.sync(); err != nil {
			return nil, false, err
		}
		if err := syncDir(lf.dir); err != nil {
			return nil, false, err
		}
	case truncated:
		if err := lf.f.Truncate(int64(valid)); err != nil {
			return nil, false, fmt.Errorf("truncate torn log tail: %w", err)
		}
		// A handle inherited from compaction is not in append mode.
		if _, err := lf.f.Seek(int64(valid), io.SeekStart); err != nil {
			return nil, false, fmt.Errorf("truncate torn log tail: %w", err)
		}
		if err := lf.sync(); err != nil {
			return nil, false, err
		}
	}
	logBytes.Add(int64(valid) - lf.size)
	lf.size = int64(valid)
	lf.failed = nil
	return img, truncated, nil
}

func (lf *logFile) sync() error {
	if err := lf.f.Sync(); err != nil {
		return fmt.Errorf("force log: %w", err)
	}
	fileSyncs.Add(1)
	return nil
}

// appendSync makes the frames durable: one write, one fsync.
func (lf *logFile) appendSync(frames []byte) error {
	if lf.failed != nil {
		return lf.failed
	}
	n, err := lf.f.Write(frames)
	lf.size += int64(n)
	logBytes.Add(int64(n))
	if err != nil {
		lf.failed = fmt.Errorf("append log: %w", err)
		return lf.failed
	}
	if err := lf.sync(); err != nil {
		lf.failed = err
		return err
	}
	return nil
}

// close closes the file, once.
func (lf *logFile) close() error {
	if lf.f == nil {
		return nil
	}
	logBytes.Add(-lf.size)
	err := lf.f.Close()
	lf.f, lf.size = nil, 0
	return err
}

// compact atomically replaces the log with a checkpoint of the image:
// the live intentions, then the live object states as batch records.
// A failure before the rename leaves the old log in place, merely
// longer than it need be.
func (lf *logFile) compact(img *logImage) error {
	tmp, err := os.CreateTemp(lf.dir, "waltmp-*")
	if err != nil {
		return fmt.Errorf("compact log: %w", err)
	}
	size, err := writeCheckpoint(tmp, img)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), lf.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("compact log: %w", err)
	}
	// The checkpoint's handle, positioned at its end, is the log's from
	// here on; the old one names an unlinked file.
	lf.f.Close()
	lf.f = tmp
	logBytes.Add(size - lf.size)
	lf.size = size
	lf.compactAt = max(4*size, walCompactMin)
	logCompactions.Inc()
	if err := syncDir(lf.dir); err != nil {
		// The rename may not survive a power loss, and then neither
		// would anything appended to the new file: stop the log.
		lf.failed = err
		return err
	}
	return nil
}

// writeCheckpoint writes a whole log holding just the image and returns
// its size.
func writeCheckpoint(f *os.File, img *logImage) (int64, error) {
	w := bufio.NewWriterSize(f, 64<<10)
	size := int64(1)
	if err := w.WriteByte(logVersion); err != nil {
		return 0, err
	}
	var frame []byte
	emit := func(r *logRecord) error {
		var err error
		if frame, err = appendLogRecord(frame[:0], r); err != nil {
			return err
		}
		size += int64(len(frame))
		_, err = w.Write(frame)
		return err
	}
	// The live intentions go first: replaying a committed one installs
	// its write set, and the object states after it — every state the
	// image holds, and a delete for every object such a write set names
	// that the image no longer holds — then have the last word, as they
	// had in the log this checkpoint replaces.
	chunk := logRecord{kind: kindBatch, batch: Batch{Writes: make(map[ids.ObjectID]State)}}
	for a := range img.index {
		in := img.index[a]
		rec := logRecord{kind: kindIntention, action: a, in: in}
		if err := emit(&rec); err != nil {
			return 0, err
		}
		if b, ok := rec.installs(); ok {
			for id := range b.Writes {
				if _, live := img.data[id]; !live {
					chunk.batch.Deletes = append(chunk.batch.Deletes, id)
				}
			}
		}
	}
	pending := 0
	for id, st := range img.data {
		chunk.batch.Writes[id] = st
		if pending += len(st) + 2*binary.MaxVarintLen64; pending >= checkpointChunk {
			if err := emit(&chunk); err != nil {
				return 0, err
			}
			clear(chunk.batch.Writes)
			chunk.batch.Deletes = nil
			pending = 0
		}
	}
	if !chunk.batch.Empty() {
		if err := emit(&chunk); err != nil {
			return 0, err
		}
	}
	return size, w.Flush()
}
