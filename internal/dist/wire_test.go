package dist

import (
	"bytes"
	"reflect"
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
			Arg: []byte(`{"k":7}`), Release: releaseList{}.add(298).add(5)}),
		"invoke_reply":           appendInvokeReply(nil, false, []byte(`42`)),
		"invoke_reply_unwritten": appendInvokeReply(nil, true, []byte(`42`)),
		"prepare":                appendPrepareReq(nil, prepareReq{Txn: 300, Coordinator: 1}),
		"vote_no":                voteNoBody,
		"vote_yes":               voteYesBody,
		"vote_read_only":         voteYesReadBody,
		"txn":                    appendTxnReq(nil, 300),
		"decision_yes":           committedBody,
		"decision_no":            abortedBody,
		"ack":                    ackBody,
		"structure":              appendStructureReq(nil, 7),
		"end":                    appendEndReq(nil, releaseList{}.add(300).add(7).add(301)),
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
		out, unwritten, err := decodeInvokeReply(body)
		return [2]any{out, unwritten}, appendInvokeReply(nil, unwritten, out), err == nil
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
		return v, enc, err == nil
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
		// Nobody reads an ack's body; its encoding is the header alone.
		return nil, ackBody, bytes.Equal(body, ackBody)
	case bodyStructure:
		id, err := decodeStructureReq(body)
		return id, appendStructureReq(nil, id), err == nil
	case bodyEnd:
		l, err := decodeEndReq(body)
		return l, appendEndReq(nil, l), err == nil
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
	if !q.Continuation || !reflect.DeepEqual(released, []ids.ActionID{298, 5}) {
		t.Fatalf("decoded continuation=%v releasing %v, want a continuation releasing [a298 a5]", q.Continuation, released)
	}
}

// TestReleaseListIsCapped: a message never releases more than
// maxReleaseBatch transactions, and a body claiming more is rejected.
func TestReleaseListIsCapped(t *testing.T) {
	var l releaseList
	for i := range maxReleaseBatch {
		l = l.add(ids.ActionID(i + 1))
	}
	if _, err := decodeEndReq(appendEndReq(nil, l)); err != nil {
		t.Fatalf("a full list is rejected: %v", err)
	}
	if _, err := decodeEndReq(appendEndReq(nil, l.add(99))); err == nil {
		t.Fatal("a list past the cap is accepted")
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
		"end":                    {0xD1, 0x09, 3, 0xAC, 0x02, 7, 0xAD, 0x02},
		"prepare":                {0xD1, 0x03, 0xAC, 0x02, 1},
		"vote_no":                {0xD1, 0x04, 0},
		"vote_yes":               {0xD1, 0x04, 1},
		"vote_read_only":         {0xD1, 0x04, 3},
		"txn":                    {0xD1, 0x05, 0xAC, 0x02},
		"decision_yes":           {0xD1, 0x06, 1},
		"decision_no":            {0xD1, 0x06, 0},
		"ack":                    {0xD1, 0x07},
		"structure":              {0xD1, 0x08, 7},
	}
	cases := bodyCases()
	for name, want := range golden {
		if got := cases[name]; !bytes.Equal(got, want) {
			t.Errorf("%s encodes to % x, want % x", name, got, want)
		}
	}
}

// TestBodyDecodeRejectsDamage: every truncation of every body is
// rejected, and every single flipped bit is either rejected or decodes
// to something that round-trips — never a panic, never a body accepted
// with bytes left over.
func TestBodyDecodeRejectsDamage(t *testing.T) {
	for name, body := range bodyCases() {
		for n := 0; n < len(body); n++ {
			if _, _, ok := decodeAny(body[:n]); ok {
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
// truncated and an oversized-count input beside them).
func FuzzDistBodyDecode(f *testing.F) {
	for _, body := range bodyCases() {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{bodyMagic})
	f.Add([]byte{bodyMagic, byte(bodyInvoke), 1, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // absurd structure count
	f.Add([]byte{bodyMagic, byte(bodyEnd), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2})             // absurd release count
	f.Fuzz(func(t *testing.T, body []byte) { checkStable(t, body) })
}
