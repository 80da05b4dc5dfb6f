package tcpnet_test

import (
	"context"
	"sync"
	"sync/atomic"
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
// codec, coalescing send path). CI runs it with -benchmem as the allocation
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

// BenchmarkConcurrentCallers runs the shape TestConcurrentCallersShareWrites
// pins: 32 callers making echo calls over one loopback connection. It
// reports calls/s beside frames per writev, so batching that costs
// throughput shows, not only how full each write is.
func BenchmarkConcurrentCallers(b *testing.B) {
	caller, to := benchPair(b)
	ctx := context.Background()
	body := []byte("prepare txn 42")
	if _, err := caller.CallRaw(ctx, to, "echo", body); err != nil { // dial both ways
		b.Fatal(err)
	}
	frames0 := counterValue(b, "mca_tcpnet_write_batch_frames_total")
	writes0 := counterValue(b, "mca_tcpnet_write_batches_total")
	const callers = 32
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := caller.CallRaw(ctx, to, "echo", body); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	frames := counterValue(b, "mca_tcpnet_write_batch_frames_total") - frames0
	writes := counterValue(b, "mca_tcpnet_write_batches_total") - writes0
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
	if writes > 0 {
		b.ReportMetric(float64(frames)/float64(writes), "frames/writev")
	}
}
