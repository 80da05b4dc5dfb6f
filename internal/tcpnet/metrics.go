package tcpnet

import "mca/internal/metrics"

// TCP transport telemetry, exported under mca_tcpnet_*. Sends already
// cross a syscall, so per-event striped-counter adds are noise.
var (
	dialsOK      *metrics.Counter
	dialsTimeout *metrics.Counter
	dialsError   *metrics.Counter

	tcpBytesWritten *metrics.Counter
	tcpBytesRead    *metrics.Counter
	writeDrops      *metrics.Counter
	undelivered     *metrics.Counter

	// Coalescing-writer telemetry: batches/frames give the syscall
	// amortisation ratio (frames ÷ batches = datagrams per writev);
	// queue drops count frames refused while 256 wait behind a write.
	writeBatches     *metrics.Counter
	writeBatchFrames *metrics.Counter
	sendQueueDrops   *metrics.Counter

	// reads counts read calls on connections, each one syscall on unix:
	// with writeBatches it gives the transport's syscalls.
	reads *metrics.Counter

	// connections counts the open connections, dialed or accepted: a
	// node pair on one connection counts one at each end.
	connections *metrics.Gauge
)

func init() {
	r := metrics.Default()
	dials := r.CounterVec("mca_tcpnet_dials_total",
		"Outbound connection attempts, by outcome.", "outcome")
	dialsOK = dials.With("ok")
	dialsTimeout = dials.With("timeout")
	dialsError = dials.With("error")
	tcpBytesWritten = r.Counter("mca_tcpnet_bytes_written_total",
		"Frame bytes written to connections (headers included).")
	tcpBytesRead = r.Counter("mca_tcpnet_bytes_read_total",
		"Frame payload bytes read from connections.")
	writeDrops = r.Counter("mca_tcpnet_write_drops_total",
		"Datagrams dropped because the connection's write failed or timed out.")
	undelivered = r.Counter("mca_tcpnet_inbox_drops_total",
		"Received datagrams dropped because no peer was attached (SetDeliver).")
	writeBatches = r.Counter("mca_tcpnet_write_batches_total",
		"Coalesced flushes (one writev syscall each).")
	writeBatchFrames = r.Counter("mca_tcpnet_write_batch_frames_total",
		"Datagrams carried by coalesced flushes.")
	sendQueueDrops = r.Counter("mca_tcpnet_send_queue_drops_total",
		"Datagrams dropped because 256 frames already waited behind a write.")
	reads = r.Counter("mca_tcpnet_reads_total",
		"Read syscalls on connections (read calls where the OS has no unix poller).")
	connections = r.Gauge("mca_tcpnet_connections",
		"Open connections, dialed or accepted, each read by a loop of its own.")
}
