package rpc

import "mca/internal/metrics"

// RPC telemetry, exported under mca_rpc_*. A call is at least one
// marshal plus one transport send, so per-event striped-counter adds
// are noise. Outcome handles are resolved at init.
var (
	callsOK        *metrics.Counter
	callsTimeout   *metrics.Counter
	callsStopped   *metrics.Counter
	callsRemoteErr *metrics.Counter
	callsCancelled *metrics.Counter
	callsSendErr   *metrics.Counter
	callsDecodeErr *metrics.Counter

	retransmits *metrics.Counter
	bytesSent   *metrics.Counter
	bytesRecv   *metrics.Counter
	requests    *metrics.Counter
	duplicates  *metrics.Counter

	// Serve-pool telemetry.
	servesPooled  *metrics.Counter
	servesSpawned *metrics.Counter
)

func init() {
	r := metrics.Default()
	calls := r.CounterVec("mca_rpc_calls_total",
		"Outgoing calls, by final outcome.", "outcome")
	callsOK = calls.With("ok")
	callsTimeout = calls.With("timeout")
	callsStopped = calls.With("stopped")
	callsRemoteErr = calls.With("remote_error")
	callsCancelled = calls.With("cancelled")
	callsSendErr = calls.With("send_error")
	callsDecodeErr = calls.With("decode_error")
	retransmits = r.Counter("mca_rpc_retransmits_total",
		"Request retransmissions after the first send.")
	bytesSent = r.Counter("mca_rpc_bytes_sent_total",
		"Framed bytes handed to the transport (requests, retransmissions, replies).")
	bytesRecv = r.Counter("mca_rpc_bytes_received_total",
		"Framed bytes received from the transport, pre-verification.")
	requests = r.Counter("mca_rpc_requests_total",
		"Incoming requests that started a handler execution.")
	duplicates = r.Counter("mca_rpc_duplicates_total",
		"Duplicate requests suppressed (cached replay or still-executing drop).")
	serves := r.CounterVec("mca_rpc_serves_total",
		"Request dispatches, by execution path.", "path")
	servesPooled = serves.With("pool")
	servesSpawned = serves.With("spawn")
}
