package netsim

import "mca/internal/metrics"

// Simulated-LAN telemetry, exported under mca_netsim_*. These mirror
// the per-network Stats counters at the same accounting sites, summed
// across every Network in the process.
var (
	msgSent      *metrics.Counter
	msgDelivered *metrics.Counter
	msgLost      *metrics.Counter
	msgDuplied   *metrics.Counter
	msgCorrupted *metrics.Counter
)

func init() {
	events := metrics.Default().CounterVec("mca_netsim_messages_total",
		"Simulated-network message events, by kind.", "event")
	msgSent = events.With("sent")
	msgDelivered = events.With("delivered")
	msgLost = events.With("lost")
	msgDuplied = events.With("duplicated")
	msgCorrupted = events.With("corrupted")
}
