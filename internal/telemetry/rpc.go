package telemetry

import (
	"sync"
	"time"
)

// RPCMetrics turns RPC outcomes into a per-type latency histogram and
// error counter. It implements protocol.Observer, so any component can
// hand it to the protocol call helpers:
//
//	faucets_rpc_latency_seconds{component="daemon",type="settle_req"}
//	faucets_rpc_errors_total{component="daemon",type="settle_req"}
//
// Per-type series are created lazily on first observation and cached, so
// the steady-state path is a read-locked map hit plus two atomic updates.
type RPCMetrics struct {
	reg       *Registry
	component string

	mu   sync.RWMutex
	lat  map[string]*Histogram
	errs map[string]*Counter
}

// NewRPCMetrics registers RPC instrumentation for one component
// ("central", "daemon", "appspector", "client") in reg.
func NewRPCMetrics(reg *Registry, component string) *RPCMetrics {
	return &RPCMetrics{
		reg:       reg,
		component: component,
		lat:       map[string]*Histogram{},
		errs:      map[string]*Counter{},
	}
}

// ObserveRPC records one round trip. Implements protocol.Observer.
// Nil-safe so un-instrumented components can pass a nil *RPCMetrics.
func (m *RPCMetrics) ObserveRPC(reqType string, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.mu.RLock()
	h, ok := m.lat[reqType]
	c := m.errs[reqType]
	m.mu.RUnlock()
	if !ok {
		labels := []Label{L("component", m.component), L("type", reqType)}
		h = m.reg.Histogram("faucets_rpc_latency_seconds",
			"RPC round-trip latency by request type.", nil, labels...)
		c = m.reg.Counter("faucets_rpc_errors_total",
			"RPC round trips that returned an error, by request type.", labels...)
		m.mu.Lock()
		m.lat[reqType] = h
		m.errs[reqType] = c
		m.mu.Unlock()
	}
	h.Observe(d.Seconds())
	if err != nil {
		c.Inc()
	}
}
