package transport

import (
	"sync/atomic"

	"sciview/internal/metrics"
)

// Process-wide frame/byte counters. They sit at the framing layer, so
// every TCP exchange — BDS fetches, service RPCs, stats probes — is
// counted regardless of which Conn carried it. "sent" covers request
// frames written by clients and response frames written by servers;
// "recv" covers the mirror reads. With both ends in-process (loopback
// clusters) each frame is therefore observed twice: once per side, like a
// per-host NIC counter would.
var (
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
)

func countSent(n int) {
	framesSent.Add(1)
	bytesSent.Add(int64(n))
}

func countRecv(n int) {
	framesRecv.Add(1)
	bytesRecv.Add(int64(n))
}

// WireMetrics exposes the transport's frame and byte counters in reg,
// sampled at scrape time. The counters always count, so it may be called
// at any time, and for more than one registry. A nil registry is a no-op.
func WireMetrics(reg *metrics.Registry) {
	for _, c := range []struct {
		name, help, dir string
		v               *atomic.Int64
	}{
		{"sciview_transport_frames_total", "Wire frames by direction.", "sent", &framesSent},
		{"sciview_transport_frames_total", "Wire frames by direction.", "recv", &framesRecv},
		{"sciview_transport_bytes_total", "Wire bytes (headers included) by direction.", "sent", &bytesSent},
		{"sciview_transport_bytes_total", "Wire bytes (headers included) by direction.", "recv", &bytesRecv},
	} {
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.v.Load()) }, "dir", c.dir)
	}
}
