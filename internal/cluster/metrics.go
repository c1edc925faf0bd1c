package cluster

import (
	"sacs/internal/obs"
)

// msgName names a request type for the rpc-latency metric label. Only
// request types appear (replies share their request's round trip).
func msgName(t msgType) string {
	switch t {
	case msgInit:
		return "init"
	case msgInstall:
		return "install"
	case msgTick:
		return "tick"
	case msgExplain:
		return "explain"
	case msgDrop:
		return "drop"
	case msgPing:
		return "ping"
	case msgDrain:
		return "drain"
	case msgAdopt:
		return "adopt"
	case msgRelease:
		return "release"
	}
	return "other"
}

// requestTypes is every msgType a coordinator sends (the instrumented set).
var requestTypes = []msgType{
	msgInit, msgInstall, msgTick, msgExplain, msgDrop, msgPing,
	msgDrain, msgAdopt, msgRelease,
}

// connMetrics is one worker connection's instrument set: registered once in
// Instrument (cold), updated lock-free per round trip (hot).
type connMetrics struct {
	rpc         [16]*obs.Histogram // per request msgType round-trip latency, ns
	bytesOut    *obs.Counter
	bytesIn     *obs.Counter
	inflight    *obs.Gauge   // shared across the client's conns
	dialRetries *obs.Counter // grows on Redial too
}

// Instrument registers the client's RPC metrics on reg, labelled per worker
// address, and turns on round-trip instrumentation: per-request-type
// latency histograms, request/reply byte counters, the dial-retry count the
// client accumulated connecting, and a frames-in-flight gauge. Workers
// added later via AddWorker are instrumented as they join, and Redial adds
// its retries to the worker's dial-retry counter. Transports created from
// this client afterwards also publish their attach epochs as
// sacs_cluster_attach_epoch{pop,worker}. Safe to call once per client; the
// observation path adds two gauge updates, two counter adds and one
// histogram observation per RPC — no locks, no allocation.
func (cl *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl.reg = reg
	for _, c := range cl.snapshotConns() {
		cl.instrumentConn(c)
	}
}

// instrumentConn registers one connection's metric set (shared inflight
// gauge: same name and labels resolve to the same series).
func (cl *Client) instrumentConn(c *conn) {
	w := obs.L("worker", c.addr)
	m := &connMetrics{
		bytesOut: cl.reg.Counter("sacs_cluster_rpc_bytes_total",
			"frame bytes by direction", w, obs.L("dir", "out")),
		bytesIn: cl.reg.Counter("sacs_cluster_rpc_bytes_total",
			"frame bytes by direction", w, obs.L("dir", "in")),
		inflight: cl.reg.Gauge("sacs_cluster_frames_inflight",
			"coordinator RPCs currently awaiting a worker reply"),
		dialRetries: cl.reg.Counter("sacs_cluster_dial_retries_total",
			"dial attempts beyond the first while connecting", w),
	}
	for _, t := range requestTypes {
		m.rpc[t] = cl.reg.Histogram("sacs_cluster_rpc_seconds",
			"round-trip latency by request type", obs.Seconds, obs.DurationBounds(),
			w, obs.L("type", msgName(t)))
	}
	m.dialRetries.Add(c.dialRetries)
	c.m = m
}
