package dist

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"mca/internal/ids"
)

// bodyCases is one valid body of every kind the protocol sends, with the
// name its fuzz corpus seed is committed under.
func bodyCases() map[string][]byte {
	chain := &structureInfo{Structure: 9, Container: 4, Write: 5, ReadOwn: true,
		Parent: &structureInfo{Structure: 8, Container: 3}}
	return map[string][]byte{
		"invoke": appendInvokeReq(nil, &invokeReq{Txn: 300, Resource: "registers", Op: "add", Arg: []byte(`{"k":7,"d":1}`)}),
		"invoke_structured": appendInvokeReq(nil, &invokeReq{Txn: 301, Resource: "bank", Op: "get",
			Structure: &structureInfo{Structure: 7, Container: 2, Write: 3, Companion: true}}),
		"invoke_chain": appendInvokeReq(nil, &invokeReq{Txn: 302, Resource: "r", Op: "o", Arg: []byte{0}, Structure: chain}),
		// A later invoke at a node the transaction has been to, carrying
		// two releases the coordinator owes that node.
		"invoke_continuation": appendInvokeReq(nil, &invokeReq{Txn: 303, Continuation: true, Resource: "registers", Op: "get",
			Arg: []byte(`{"k":7}`), Release: txnList{}.add(298).add(5)}),
		// An invoke carrying commit decisions for two prepared transactions
		// and no release.
		"invoke_commits": appendInvokeReq(nil, &invokeReq{Txn: 304, Continuation: true, Resource: "registers", Op: "add",
			Arg: []byte(`{"k":8}`), Commit: txnList{}.add(296).add(297)}),
		"invoke_reply":           appendInvokeReply(nil, 0, []byte(`42`), txnList{}),
		"invoke_reply_unwritten": appendInvokeReply(nil, replyNothingWritten, []byte(`42`), txnList{}),
		"invoke_reply_acks":      appendInvokeReply(nil, 0, []byte(`{}`), txnList{}.add(296)),
		// A writer's yes vote, with the ack its force made durable.
		"invoke_reply_voted": appendInvokeReply(nil, replyVoted, []byte(`{}`), txnList{}.add(296)),
		"prepare":            appendPrepareReq(nil, prepareReq{Txn: 300, Coordinator: 1}),
		"vote_no":            voteNoBody,
		"vote_yes":           voteYesBody,
		"vote_read_only":     voteYesReadBody,
		"vote_acks":          appendOptList(slices.Clip(voteYesBody), txnList{}.add(296).add(297)),
		"txn":                appendTxnReq(nil, 300),
		"decision_yes":       committedBody,
		"decision_no":        abortedBody,
		"ack":                ackBody,
		"ack_acks":           appendOptList(slices.Clip(ackBody), txnList{}.add(297)),
		"end":                appendEndReq(nil, &endReq{Release: txnList{}.add(300).add(7).add(301)}),
		"end_commits":        appendEndReq(nil, &endReq{Commit: txnList{}.add(296)}),
		"end_aborts":         appendEndReq(nil, &endReq{Abort: txnList{}.add(300)}),
		// A structure's end, with the commit still owed there on board, and
		// a structure's cancel.
		"structure":  appendEndReq(nil, &endReq{Commit: txnList{}.add(296), Structure: 7, CommitStructure: true}),
		"end_cancel": appendEndReq(nil, &endReq{Structure: 7}),
	}
}

// decodeAny runs the decoder the body's kind byte names and re-encodes
// what it accepted. ok is false for a rejected body.
func decodeAny(body []byte) (decoded any, reencoded []byte, ok bool) {
	if len(body) < 2 {
		return nil, nil, false
	}
	switch bodyKind(body[1]) {
	case bodyInvoke:
		q, err := decodeInvokeReq(body)
		return q, appendInvokeReq(nil, &q), err == nil
	case bodyInvokeReply:
		out, flags, acks, err := decodeInvokeReply(body)
		return [3]any{out, flags, acks}, appendInvokeReply(nil, flags, out, acks), err == nil
	case bodyPrepare:
		q, err := decodePrepareReq(body)
		return q, appendPrepareReq(nil, q), err == nil
	case bodyVote:
		v, err := decodeVote(body)
		enc := voteNoBody
		switch {
		case v.ReadOnly:
			enc = voteYesReadBody
		case v.OK:
			enc = voteYesBody
		}
		return v, appendOptList(slices.Clip(enc), v.Acks), err == nil
	case bodyTxn:
		txn, err := decodeTxnReq(body)
		return txn, appendTxnReq(nil, txn), err == nil
	case bodyDecision:
		committed, err := decodeDecision(body)
		enc := abortedBody
		if committed {
			enc = committedBody
		}
		return committed, enc, err == nil
	case bodyAck:
		acks, err := decodeAck(body)
		return acks, appendOptList(slices.Clip(ackBody), acks), err == nil
	case bodyEnd:
		q, err := decodeEndReq(body)
		return q, appendEndReq(nil, &q), err == nil
	}
	return nil, nil, false
}

// TestBodyRoundTrip decodes every kind of body back to what was encoded.
func TestBodyRoundTrip(t *testing.T) {
	for name, body := range bodyCases() {
		_, reencoded, ok := decodeAny(body)
		if !ok {
			t.Errorf("%s: own encoding % x rejected", name, body)
			continue
		}
		if !bytes.Equal(reencoded, body) {
			t.Errorf("%s: re-encoded to % x, was % x", name, reencoded, body)
		}
	}
	q, err := decodeInvokeReq(bodyCases()["invoke_chain"])
	if err != nil {
		t.Fatal(err)
	}
	want := invokeReq{Txn: 302, Resource: "r", Op: "o", Arg: []byte{0},
		Structure: &structureInfo{Structure: 9, Container: 4, Write: 5, ReadOwn: true,
			Parent: &structureInfo{Structure: 8, Container: 3}}}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("decoded %+v (structure %+v), want %+v", q, q.Structure, want)
	}
	q, err = decodeInvokeReq(bodyCases()["invoke_continuation"])
	if err != nil {
		t.Fatal(err)
	}
	var released []ids.ActionID
	q.Release.each(func(txn ids.ActionID) { released = append(released, txn) })
	if !q.Continuation || !reflect.DeepEqual(released, []ids.ActionID{298, 5}) || q.Commit.n != 0 {
		t.Fatalf("decoded continuation=%v releasing %v committing %d, want a continuation releasing [a298 a5] and committing none", q.Continuation, released, q.Commit.n)
	}
	q, err = decodeInvokeReq(bodyCases()["invoke_commits"])
	if err != nil {
		t.Fatal(err)
	}
	var committed []ids.ActionID
	q.Commit.each(func(txn ids.ActionID) { committed = append(committed, txn) })
	if q.Release.n != 0 || !reflect.DeepEqual(committed, []ids.ActionID{296, 297}) {
		t.Fatalf("decoded %d releases and commits %v, want none and [a296 a297]", q.Release.n, committed)
	}
	_, flags, acks, err := decodeInvokeReply(bodyCases()["invoke_reply_voted"])
	if err != nil || flags != replyVoted || acks.n != 1 {
		t.Fatalf("voted invoke reply decoded to flags %b with %d acks, %v; want voted with one ack", flags, acks.n, err)
	}
	v, err := decodeVote(bodyCases()["vote_acks"])
	if err != nil || !v.OK || v.ReadOnly || v.Acks.n != 2 {
		t.Fatalf("vote with acks decoded to %+v, %v; want a yes carrying two acks", v, err)
	}
	end, err := decodeEndReq(bodyCases()["structure"])
	if err != nil || end.Structure != 7 || !end.CommitStructure || end.Commit.n != 1 || end.Release.n+end.Abort.n != 0 {
		t.Fatalf("structure end decoded to %+v, %v; want structure 7 committing, with one commit on board", end, err)
	}
}

// TestVotedReplyWrote: only a writer votes, so an invoke reply saying
// both "voted" and "nothing written" is rejected; and every writer votes,
// so an invoke has no bit asking for it, and one with the bit set that
// once did is rejected.
func TestVotedReplyWrote(t *testing.T) {
	body := appendInvokeReply(nil, replyNothingWritten|replyVoted, []byte(`42`), txnList{})
	if _, _, _, err := decodeInvokeReply(body); err == nil {
		t.Fatalf("invoke reply % x voting for nothing written accepted", body)
	}
	if _, err := decodeInvokeReq(retiredVoteBit); err == nil {
		t.Fatalf("invoke % x with the retired vote bit accepted", retiredVoteBit)
	}
}

// retiredVoteBit is a first contact with flag bit 1 set, which asked a
// writer to vote in its reply before every writer did.
var retiredVoteBit = append([]byte{0xD1, 0x01, 0x03, 0xB1, 0x02, 9, 'r', 'e', 'g', 'i', 's', 't', 'e', 'r', 's', 3, 'a', 'd', 'd', 7},
	append([]byte(`{"k":9}`), 0, 0)...)

// TestOptionalListsAreCanonical: a body's optional last list is absent
// when empty — a present one with a zero count is rejected — so each body
// has one encoding.
func TestOptionalListsAreCanonical(t *testing.T) {
	for name, body := range map[string][]byte{
		"invoke":       append(bodyCases()["invoke"], 0),
		"invoke_reply": append(bodyCases()["invoke_reply"], 0),
		"vote":         {bodyMagic, byte(bodyVote), voteYes, 0},
		"ack":          {bodyMagic, byte(bodyAck), 0},
	} {
		if _, _, ok := decodeAny(body); ok {
			t.Errorf("%s with an empty optional list % x accepted", name, body)
		}
	}
}

// TestReleaseListIsCapped: a message never carries more than
// maxOwedBatch transactions in one list, and a body claiming more is
// rejected.
func TestReleaseListIsCapped(t *testing.T) {
	var l txnList
	for i := range maxOwedBatch {
		l = l.add(ids.ActionID(i + 1))
	}
	if _, err := decodeEndReq(appendEndReq(nil, &endReq{Release: l, Commit: l, Abort: l})); err != nil {
		t.Fatalf("full lists are rejected: %v", err)
	}
	for name, q := range map[string]endReq{"release": {Release: l.add(99)}, "commit": {Commit: l.add(99)}, "abort": {Abort: l.add(99)}} {
		if _, err := decodeEndReq(appendEndReq(nil, &q)); err == nil {
			t.Fatalf("a %s list past the cap is accepted", name)
		}
	}
}

// TestBodyGoldenBytes pins the layouts DESIGN.md §15 documents.
func TestBodyGoldenBytes(t *testing.T) {
	golden := map[string][]byte{
		"invoke": append([]byte{0xD1, 0x01, 0x01, 0xAC, 0x02, 9, 'r', 'e', 'g', 'i', 's', 't', 'e', 'r', 's', 3, 'a', 'd', 'd', 13},
			append([]byte(`{"k":7,"d":1}`), 0, 0)...),
		"invoke_structured": {0xD1, 0x01, 0x01, 0xAD, 0x02, 4, 'b', 'a', 'n', 'k', 3, 'g', 'e', 't', 0, 1, 7, 2, 3, 0x01, 0},
		"invoke_continuation": append([]byte{0xD1, 0x01, 0x00, 0xAF, 0x02, 9, 'r', 'e', 'g', 'i', 's', 't', 'e', 'r', 's', 3, 'g', 'e', 't', 7},
			append([]byte(`{"k":7}`), 0, 2, 0xAA, 0x02, 5)...),
		"invoke_reply":           {0xD1, 0x02, 0, 2, '4', '2'},
		"invoke_reply_unwritten": {0xD1, 0x02, 1, 2, '4', '2'},
		"invoke_reply_voted":     {0xD1, 0x02, 2, 2, '{', '}', 1, 0xA8, 0x02},
		"end":                    {0xD1, 0x08, 0, 3, 0xAC, 0x02, 7, 0xAD, 0x02, 0, 0},
		"prepare":                {0xD1, 0x03, 0xAC, 0x02, 1},
		"vote_no":                {0xD1, 0x04, 0},
		"vote_yes":               {0xD1, 0x04, 1},
		"vote_read_only":         {0xD1, 0x04, 3},
		"txn":                    {0xD1, 0x05, 0xAC, 0x02},
		"decision_yes":           {0xD1, 0x06, 1},
		"decision_no":            {0xD1, 0x06, 0},
		"ack":                    {0xD1, 0x07},
		"end_commits":            {0xD1, 0x08, 0, 0, 1, 0xA8, 0x02, 0},
		"end_aborts":             {0xD1, 0x08, 0, 0, 0, 1, 0xAC, 0x02},
		"structure":              {0xD1, 0x08, 15, 0, 1, 0xA8, 0x02, 0},
		"end_cancel":             {0xD1, 0x08, 14, 0, 0, 0},
		// The optional lists, when present.
		"vote_acks": {0xD1, 0x04, 1, 2, 0xA8, 0x02, 0xA9, 0x02},
		"ack_acks":  {0xD1, 0x07, 1, 0xA9, 0x02},
	}
	cases := bodyCases()
	for name, want := range golden {
		if got := cases[name]; !bytes.Equal(got, want) {
			t.Errorf("%s encodes to % x, want % x", name, got, want)
		}
	}
}

// TestBodyDecodeRejectsDamage: every truncation of every body is
// rejected, but for the body less its optional last list, and every
// single flipped bit is either rejected or decodes to something that
// round-trips — never a panic, never a body accepted with bytes left
// over.
func TestBodyDecodeRejectsDamage(t *testing.T) {
	// A body ending in an optional list is still a whole body without it:
	// that one truncation is the body less its list.
	cases := bodyCases()
	lessList := map[string][]byte{
		"invoke_commits": appendInvokeReq(nil, &invokeReq{Txn: 304, Continuation: true, Resource: "registers", Op: "add",
			Arg: []byte(`{"k":8}`)}),
		"invoke_reply_acks":  appendInvokeReply(nil, 0, []byte(`{}`), txnList{}),
		"invoke_reply_voted": appendInvokeReply(nil, replyVoted, []byte(`{}`), txnList{}),
		"vote_acks":          voteYesBody,
		"ack_acks":           ackBody,
	}
	for name, body := range cases {
		for n := 0; n < len(body); n++ {
			if _, _, ok := decodeAny(body[:n]); ok && !bytes.Equal(body[:n], lessList[name]) {
				t.Errorf("%s: %d-byte truncation of %d bytes accepted", name, n, len(body))
			}
		}
		if _, _, ok := decodeAny(append(bytes.Clone(body), 0)); ok {
			t.Errorf("%s: accepted with a trailing byte", name)
		}
		for bit := 0; bit < len(body)*8; bit++ {
			damaged := bytes.Clone(body)
			damaged[bit/8] ^= 1 << (bit % 8)
			checkStable(t, damaged)
		}
	}
}

// checkStable holds the fuzz invariant: a body either is rejected or
// survives decode → encode → decode unchanged.
func checkStable(t *testing.T, body []byte) {
	t.Helper()
	first, reencoded, ok := decodeAny(body)
	if !ok {
		return
	}
	second, _, ok := decodeAny(reencoded)
	if !ok {
		t.Fatalf("re-encoding % x of accepted body % x rejected", reencoded, body)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("decode/encode/decode drift on % x:\n got %+v\nwant %+v", body, second, first)
	}
}

// FuzzDistBodyDecode throws arbitrary bytes at the body decoders. The
// seed corpus is every body kind (committed under testdata/fuzz, with a
// truncated and an oversized-count input beside them), and an invoke with
// the retired vote bit.
func FuzzDistBodyDecode(f *testing.F) {
	for _, body := range bodyCases() {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{bodyMagic})
	f.Add([]byte{bodyMagic, byte(bodyInvoke), 1, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // absurd structure count
	f.Add([]byte{bodyMagic, byte(bodyEnd), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2})          // absurd release count
	f.Add(retiredVoteBit)
	f.Fuzz(func(t *testing.T, body []byte) { checkStable(t, body) })
}
