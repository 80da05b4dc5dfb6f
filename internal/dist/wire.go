// The bodies of the commit protocol's messages, as carried inside RPC
// envelopes. Every body starts with a two-byte header — the magic byte,
// which doubles as the layout version, and the body kind — followed by
// fields in the internal/wire vocabulary (uvarint identifiers,
// length-prefixed byte strings). Decoding is strict: wrong magic, wrong
// kind, an unknown flag bit, a short field or a trailing byte rejects the
// body. What the application passes through the protocol (the argument
// and the result of an invocation) rides as opaque bytes.
//
//	invoke        D1 01  txn  resource  op  arg  n  n×(structure container write flags)
//	invoke reply  D1 02  result
//	prepare       D1 03  txn  coordinator
//	vote          D1 04  flags (bit0 yes, bit1 read-only)
//	txn           D1 05  txn                    (commit, abort, decision query)
//	decision      D1 06  flags (bit0 committed)
//	ack           D1 07
//	structure     D1 08  structure              (end, abort)
//
// The invoke's structure entries run from the transaction's own
// structure outwards through its parents; n is 0 for a transaction
// outside any structure. Entry flags: bit0 companion, bit1 read-own.
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
	bodyStructure
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
	Txn      ids.ActionID
	Resource string
	Op       string
	// Arg is the application's argument, opaque here.
	Arg []byte
	// Structure, when non-nil, mirrors the coordinator-side colour
	// scheme at the participant (distributed serializing actions).
	Structure *structureInfo
}

const (
	structCompanion byte = 1 << 0
	structReadOwn   byte = 1 << 1
	// structEntryMin is the least an encoded structure entry takes:
	// three one-byte uvarints and the flags.
	structEntryMin = 4
)

func appendInvokeReq(buf []byte, q *invokeReq) []byte {
	buf = append(buf, bodyMagic, byte(bodyInvoke))
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
	return buf
}

// decodeInvokeReq decodes an invoke. Resource and Op are interned; Arg
// aliases body.
func decodeInvokeReq(body []byte) (invokeReq, error) {
	r, err := bodyReader(body, bodyInvoke)
	if err != nil {
		return invokeReq{}, err
	}
	q := invokeReq{Txn: ids.ActionID(r.Uvarint())}
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
	return q, finish(&r)
}

func appendInvokeReply(buf, result []byte) []byte {
	return wire.AppendBytes(append(buf, bodyMagic, byte(bodyInvokeReply)), result)
}

// decodeInvokeReply returns the application's result, aliasing body.
func decodeInvokeReply(body []byte) ([]byte, error) {
	r, err := bodyReader(body, bodyInvokeReply)
	if err != nil {
		return nil, err
	}
	result := r.Bytes()
	return result, finish(&r)
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
}

const (
	voteYes      byte = 1 << 0
	voteReadOnly byte = 1 << 1
)

// The three votes there are, encoded once. Handlers return these slices
// as reply bodies; the RPC layer only ever reads a reply body.
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
	return voteResp{OK: flags&voteYes != 0, ReadOnly: flags&voteReadOnly != 0}, finish(&r)
}

// --- commit, abort, decision ---

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

// --- structures ---

func appendStructureReq(buf []byte, id StructureID) []byte {
	return wire.AppendUvarint(append(buf, bodyMagic, byte(bodyStructure)), uint64(id))
}

func decodeStructureReq(body []byte) (StructureID, error) {
	r, err := bodyReader(body, bodyStructure)
	if err != nil {
		return 0, err
	}
	id := StructureID(r.Uvarint())
	return id, finish(&r)
}
