package telemetry

// PoolMetrics turns RPC connection-pool lifecycle events into gauges
// and counters. It implements protocol.PoolObserver, so a component
// hands it to its protocol.Pool:
//
//	faucets_rpc_pool_open_conns{component="daemon"}
//	faucets_rpc_pool_checkouts_total{component="daemon"}
//	faucets_rpc_pool_redials_total{component="daemon"}
//	faucets_rpc_pool_idle_reaps_total{component="daemon"}
//
// Nil-safe like RPCMetrics, so un-instrumented components pass nil.
type PoolMetrics struct {
	open      *Gauge
	checkouts *Counter
	redials   *Counter
	reaps     *Counter
}

// NewPoolMetrics registers pool instrumentation for one component in
// reg.
func NewPoolMetrics(reg *Registry, component string) *PoolMetrics {
	l := L("component", component)
	return &PoolMetrics{
		open:      reg.Gauge("faucets_rpc_pool_open_conns", "Persistent RPC connections currently open in the pool.", l),
		checkouts: reg.Counter("faucets_rpc_pool_checkouts_total", "Pooled connections handed to RPC calls.", l),
		redials:   reg.Counter("faucets_rpc_pool_redials_total", "Fresh dials forced by broken pooled connections.", l),
		reaps:     reg.Counter("faucets_rpc_pool_idle_reaps_total", "Pooled connections closed by the idle reaper.", l),
	}
}

// PoolConnOpen implements protocol.PoolObserver.
func (m *PoolMetrics) PoolConnOpen(delta int) {
	if m == nil {
		return
	}
	m.open.Add(float64(delta))
}

// PoolCheckout implements protocol.PoolObserver.
func (m *PoolMetrics) PoolCheckout() {
	if m == nil {
		return
	}
	m.checkouts.Inc()
}

// PoolRedial implements protocol.PoolObserver.
func (m *PoolMetrics) PoolRedial() {
	if m == nil {
		return
	}
	m.redials.Inc()
}

// PoolIdleReap implements protocol.PoolObserver.
func (m *PoolMetrics) PoolIdleReap() {
	if m == nil {
		return
	}
	m.reaps.Inc()
}
