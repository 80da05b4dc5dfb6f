package tcpnet_test

import (
	"context"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
)

type benchReq struct {
	Txn    uint64 `json:"txn"`
	Op     string `json:"op"`
	Amount int    `json:"amount"`
}

func benchPair(b *testing.B) (*rpc.Peer, ids.NodeID) {
	b.Helper()
	nw := tcpnet.NewNetwork()
	epS, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	epC, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	opts := rpc.Options{RetryInterval: 100 * time.Millisecond, CallTimeout: 30 * time.Second}
	server := rpc.NewPeerOn(epS, opts)
	caller := rpc.NewPeerOn(epC, opts)
	server.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	server.Start()
	caller.Start()
	b.Cleanup(func() {
		caller.Stop()
		server.Stop()
	})
	return caller, epS.ID()
}

// BenchmarkRPCCall measures one echo call over loopback TCP (binary
// codec, coalescing writer). CI runs it with -benchmem as the allocation
// smoke for the call path.
func BenchmarkRPCCall(b *testing.B) {
	caller, to := benchPair(b)
	ctx := context.Background()
	req := benchReq{Txn: 42, Op: "transfer", Amount: 10}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var resp benchReq
			if err := caller.Call(ctx, to, "echo", req, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
