// The bodies of the commit protocol's messages, as carried inside RPC
// envelopes. Every body starts with a two-byte header — the magic byte,
// which doubles as the layout version, and the body kind — followed by
// fields in the internal/wire vocabulary (uvarint identifiers,
// length-prefixed byte strings). Decoding is strict: wrong magic, wrong
// kind, an unknown flag bit, a short field or a trailing byte rejects the
// body. What the application passes through the protocol (the argument
// and the result of an invocation) rides as opaque bytes.
//
//	invoke        D1 01  flags (bit0 first contact)  txn  resource
//	                     op  arg  n  n×(structure container write flags)  r  r×txn  [c  c×txn]
//	invoke reply  D1 02  flags (bit0 nothing written so far, bit1 voted)  result  [a  a×txn]
//	prepare       D1 03  txn  coordinator
//	vote          D1 04  flags (bit0 yes, bit1 read-only)  [a  a×txn]
//	txn           D1 05  txn                    (decision query)
//	decision      D1 06  flags (bit0 committed) (decision reply)
//	ack           D1 07  [a  a×txn]             (end reply)
//	end           D1 08  structure<<1 | commit  r  r×txn  c  c×txn  x  x×txn
//
// The invoke's structure entries run from the transaction's own
// structure outwards through its parents; n is 0 for a transaction
// outside any structure. Entry flags: bit0 companion, bit1 read-own.
//
// What a coordinator owes a node (release.go) are entries of a one-bit
// kind — the release of a finished single-site reader, the commit of a
// prepared writer — which an invoke carries as two lists: the r releases,
// then the c commits. An end carries one list per event that ends a
// transaction there (incarnation.end): the r releases, the c commits, the x
// aborts; a structure's end or cancel names the structure (0: none).
// The a transactions after an invoke reply, a vote or an ack are commits
// the replying node has made durable. A bracketed list is absent when
// empty and never present with a zero count, so a body without commits or
// acks is byte for byte what it was before there were any. No list holds
// more than maxOwedBatch entries.
package dist

import (
	"errors"

	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/wire"
)

const bodyMagic byte = 0xD1

type bodyKind byte

const (
	bodyInvoke bodyKind = iota + 1
	bodyInvokeReply
	bodyPrepare
	bodyVote
	bodyTxn
	bodyDecision
	bodyAck
	bodyEnd
)

// errMalformedBody is returned for a body its decoder rejects.
var errMalformedBody = errors.New("dist: malformed message body")

// bodyReader checks the header and returns a reader over the fields.
func bodyReader(body []byte, k bodyKind) (wire.Reader, error) {
	if len(body) < 2 || body[0] != bodyMagic || bodyKind(body[1]) != k {
		return wire.Reader{}, errMalformedBody
	}
	return wire.NewReader(body[2:]), nil
}

// finish turns the reader's verdict into the decoder's error.
func finish(r *wire.Reader) error {
	if !r.Done() {
		return errMalformedBody
	}
	return nil
}

// --- invoke ---

type invokeReq struct {
	Txn ids.ActionID
	// Continuation is false on the coordinator's first contact with the
	// node for this transaction — the only invoke that may start a
	// participant action, and the one a writer votes in the reply to. A
	// later one that finds none is refused: the action it continues died,
	// with its earlier effects, in a crash.
	Continuation bool
	Resource     string
	Op           string
	// Arg is the application's argument, opaque here.
	Arg []byte
	// Structure, when non-nil, mirrors the coordinator-side colour
	// scheme at the participant (distributed serializing actions).
	Structure *structureInfo
	// Release and Commit list what the coordinator owes this node, to be
	// worked off before the operation runs: transactions to release, and
	// transactions decided commit. They alias the body after a decode.
	Release, Commit txnList
}

const (
	invokeFirstContact  byte = 1 << 0
	replyNothingWritten byte = 1 << 0
	replyVoted          byte = 1 << 1

	structCompanion byte = 1 << 0
	structReadOwn   byte = 1 << 1
	// structEntryMin is the least an encoded structure entry takes:
	// three one-byte uvarints and the flags.
	structEntryMin = 4
)

func appendInvokeReq(buf []byte, q *invokeReq) []byte {
	var flags byte
	if !q.Continuation {
		flags = invokeFirstContact
	}
	buf = append(buf, bodyMagic, byte(bodyInvoke), flags)
	buf = wire.AppendUvarint(buf, uint64(q.Txn))
	buf = wire.AppendString(buf, q.Resource)
	buf = wire.AppendString(buf, q.Op)
	buf = wire.AppendBytes(buf, q.Arg)
	depth := 0
	for s := q.Structure; s != nil; s = s.Parent {
		depth++
	}
	buf = wire.AppendUvarint(buf, uint64(depth))
	for s := q.Structure; s != nil; s = s.Parent {
		buf = wire.AppendUvarint(buf, uint64(s.Structure))
		buf = wire.AppendUvarint(buf, uint64(s.Container))
		buf = wire.AppendUvarint(buf, uint64(s.Write))
		var flags byte
		if s.Companion {
			flags |= structCompanion
		}
		if s.ReadOwn {
			flags |= structReadOwn
		}
		buf = append(buf, flags)
	}
	return appendOptList(appendTxnList(buf, q.Release), q.Commit)
}

// decodeInvokeReq decodes an invoke. Resource and Op are interned; Arg
// aliases body.
func decodeInvokeReq(body []byte) (invokeReq, error) {
	r, err := bodyReader(body, bodyInvoke)
	if err != nil {
		return invokeReq{}, err
	}
	flags := r.Byte()
	if flags&^invokeFirstContact != 0 {
		r.Fail()
	}
	q := invokeReq{Continuation: flags&invokeFirstContact == 0, Txn: ids.ActionID(r.Uvarint())}
	q.Resource = wire.Intern(r.Bytes())
	q.Op = wire.Intern(r.Bytes())
	q.Arg = r.Bytes()
	link := &q.Structure
	for n := r.Count(structEntryMin); n > 0; n-- {
		s := &structureInfo{Structure: StructureID(r.Uvarint())}
		//mcalint:ignore colourzero decoding a colour the coordinator minted with colour.Fresh, not minting one
		s.Container = colour.Colour(r.Uvarint())
		//mcalint:ignore colourzero decoding a colour the coordinator minted with colour.Fresh, not minting one
		s.Write = colour.Colour(r.Uvarint())
		flags := r.Byte()
		if flags&^(structCompanion|structReadOwn) != 0 {
			r.Fail()
		}
		s.Companion = flags&structCompanion != 0
		s.ReadOwn = flags&structReadOwn != 0
		*link, link = s, &s.Parent
	}
	q.Release = readTxnList(&r)
	q.Commit = readOptList(&r)
	return q, finish(&r)
}

// appendInvokeReply encodes the operation's result with its flags —
// whether the participant action has written nothing so far, whether it
// voted yes — and the acks the replying node owes the caller.
func appendInvokeReply(buf []byte, flags byte, result []byte, acks txnList) []byte {
	return appendOptList(wire.AppendBytes(append(buf, bodyMagic, byte(bodyInvokeReply), flags), result), acks)
}

// decodeInvokeReply returns the application's result, the flags and the
// acks, aliasing body. Only a writer votes: a reply that says both is
// malformed.
func decodeInvokeReply(body []byte) (result []byte, flags byte, acks txnList, err error) {
	r, err := bodyReader(body, bodyInvokeReply)
	if err != nil {
		return nil, 0, txnList{}, err
	}
	flags = r.Byte()
	if flags&^(replyNothingWritten|replyVoted) != 0 || flags == replyNothingWritten|replyVoted {
		r.Fail()
	}
	result = r.Bytes()
	acks = readOptList(&r)
	return result, flags, acks, finish(&r)
}

// --- transaction lists ---

// txnList is a list of transaction identifiers in its encoded form, so
// that a sender builds it in a stack buffer and a receiver walks it in
// place. A decoded list aliases the body and was validated whole.
type txnList struct {
	n   int
	ids []byte // n uvarints
}

// maxOwedBatch caps the transactions one list carries.
const maxOwedBatch = 64

func (l txnList) add(txn ids.ActionID) txnList {
	return txnList{n: l.n + 1, ids: wire.AppendUvarint(l.ids, uint64(txn))}
}

// each calls fn with every transaction in the list.
func (l txnList) each(fn func(ids.ActionID)) {
	r := wire.NewReader(l.ids)
	for range l.n {
		fn(ids.ActionID(r.Uvarint()))
	}
}

func appendTxnList(buf []byte, l txnList) []byte {
	return append(wire.AppendUvarint(buf, uint64(l.n)), l.ids...)
}

func readTxnList(r *wire.Reader) txnList {
	n := r.Count(1)
	if n > maxOwedBatch {
		r.Fail()
		return txnList{}
	}
	if ids := r.Uvarints(n); len(ids) > 0 {
		return txnList{n: n, ids: ids}
	}
	return txnList{}
}

// appendOptList appends a body's optional last list: nothing when it is
// empty.
func appendOptList(buf []byte, l txnList) []byte {
	if l.n == 0 {
		return buf
	}
	return appendTxnList(buf, l)
}

// readOptList reads a body's optional last list, which is present only
// when bytes are left and then is not empty.
func readOptList(r *wire.Reader) txnList {
	if r.Len() == 0 {
		return txnList{}
	}
	l := readTxnList(r)
	if l.n == 0 {
		r.Fail()
	}
	return l
}

// endReq is an end message: what a coordinator has finished with at a
// node, by the event that ends each transaction there, and, when Structure
// is not zero, the structure whose container the node then ends —
// committing it when CommitStructure is set, aborting it otherwise. The
// lists alias the body after a decode.
type endReq struct {
	Release, Commit, Abort txnList
	Structure              StructureID
	CommitStructure        bool
}

func appendEndReq(buf []byte, q *endReq) []byte {
	s := uint64(q.Structure) << 1
	if q.CommitStructure {
		s |= 1
	}
	buf = wire.AppendUvarint(append(buf, bodyMagic, byte(bodyEnd)), s)
	return appendTxnList(appendTxnList(appendTxnList(buf, q.Release), q.Commit), q.Abort)
}

// decodeEndReq decodes an end. Only a structure's end commits one.
func decodeEndReq(body []byte) (endReq, error) {
	r, err := bodyReader(body, bodyEnd)
	if err != nil {
		return endReq{}, err
	}
	s := r.Uvarint()
	if s == 1 {
		r.Fail()
	}
	q := endReq{Structure: StructureID(s >> 1), CommitStructure: s&1 != 0}
	q.Release, q.Commit, q.Abort = readTxnList(&r), readTxnList(&r), readTxnList(&r)
	return q, finish(&r)
}

// --- prepare and vote ---

type prepareReq struct {
	Txn         ids.ActionID
	Coordinator ids.NodeID
}

func appendPrepareReq(buf []byte, q prepareReq) []byte {
	buf = append(buf, bodyMagic, byte(bodyPrepare))
	buf = wire.AppendUvarint(buf, uint64(q.Txn))
	return wire.AppendUvarint(buf, uint64(q.Coordinator))
}

func decodePrepareReq(body []byte) (prepareReq, error) {
	r, err := bodyReader(body, bodyPrepare)
	if err != nil {
		return prepareReq{}, err
	}
	q := prepareReq{Txn: ids.ActionID(r.Uvarint()), Coordinator: ids.NodeID(r.Uvarint())}
	return q, finish(&r)
}

type voteResp struct {
	OK bool
	// ReadOnly marks a yes vote from a participant with no writes: it
	// committed locally at prepare (releasing its locks) and must be
	// excluded from the decision record and phase 2.
	ReadOnly bool
	// Acks aliases the body.
	Acks txnList
}

const (
	voteYes      byte = 1 << 0
	voteReadOnly byte = 1 << 1
)

// The three votes there are, encoded once. Handlers return these slices
// as reply bodies — with acks appended to a copy — and the RPC layer only
// ever reads a reply body.
var (
	voteNoBody      = []byte{bodyMagic, byte(bodyVote), 0}
	voteYesBody     = []byte{bodyMagic, byte(bodyVote), voteYes}
	voteYesReadBody = []byte{bodyMagic, byte(bodyVote), voteYes | voteReadOnly}
)

func decodeVote(body []byte) (voteResp, error) {
	r, err := bodyReader(body, bodyVote)
	if err != nil {
		return voteResp{}, err
	}
	flags := r.Byte()
	// A read-only vote is a yes vote: the bit alone is not a vote.
	if flags&^(voteYes|voteReadOnly) != 0 || flags == voteReadOnly {
		r.Fail()
	}
	acks := readOptList(&r)
	return voteResp{OK: flags&voteYes != 0, ReadOnly: flags&voteReadOnly != 0, Acks: acks}, finish(&r)
}

// --- decision ---

func appendTxnReq(buf []byte, txn ids.ActionID) []byte {
	return wire.AppendUvarint(append(buf, bodyMagic, byte(bodyTxn)), uint64(txn))
}

func decodeTxnReq(body []byte) (ids.ActionID, error) {
	r, err := bodyReader(body, bodyTxn)
	if err != nil {
		return 0, err
	}
	txn := ids.ActionID(r.Uvarint())
	return txn, finish(&r)
}

var (
	ackBody       = []byte{bodyMagic, byte(bodyAck)}
	committedBody = []byte{bodyMagic, byte(bodyDecision), 1}
	abortedBody   = []byte{bodyMagic, byte(bodyDecision), 0}
)

// decodeAck returns the acks an ack body carries, aliasing body.
func decodeAck(body []byte) (txnList, error) {
	r, err := bodyReader(body, bodyAck)
	if err != nil {
		return txnList{}, err
	}
	acks := readOptList(&r)
	return acks, finish(&r)
}

func decodeDecision(body []byte) (committed bool, err error) {
	r, err := bodyReader(body, bodyDecision)
	if err != nil {
		return false, err
	}
	flags := r.Byte()
	if flags > 1 {
		r.Fail()
	}
	return flags == 1, finish(&r)
}
