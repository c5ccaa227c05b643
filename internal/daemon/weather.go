package daemon

import (
	"sync"
	"time"

	"faucets/internal/bidding"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/weather"
)

// centralWeather implements bidding.WeatherSource over the wire: the
// daemon's bid generator asks the Faucets Central Server — over the
// daemon's pool, at the address it is homed to now — for the §5.2.1
// grid-weather report. Reports are cached briefly so a burst of bid
// requests does not hammer the Central Server.
type centralWeather struct {
	d *Daemon

	mu      sync.Mutex
	last    weather.Report
	lastOK  bool
	fetched time.Time
}

// weatherTTL is the cache lifetime of a fetched report, wall time.
const weatherTTL = 2 * time.Second

// GridWeather implements bidding.WeatherSource.
func (c *centralWeather) GridWeather(now float64) (weather.Report, bool) {
	c.mu.Lock()
	if time.Since(c.fetched) < weatherTTL {
		rep, ok := c.last, c.lastOK
		c.mu.Unlock()
		return rep, ok
	}
	c.mu.Unlock()

	rep, ok := c.fetch()

	c.mu.Lock()
	c.last, c.lastOK, c.fetched = rep, ok, time.Now()
	c.mu.Unlock()
	return rep, ok
}

func (c *centralWeather) fetch() (weather.Report, bool) {
	var reply protocol.WeatherOK
	err := c.d.pool.Call(c.d.centralAddr(), c.d.cfg.RPCTimeout,
		protocol.TypeWeatherReq, protocol.WeatherReq{}, protocol.TypeWeatherOK, &reply)
	if err != nil {
		return weather.Report{}, false
	}
	return weather.Report{
		Time:              reply.Time,
		GridUtilization:   reply.GridUtilization,
		Servers:           reply.Servers,
		TotalPE:           reply.TotalPE,
		Contracts:         reply.Contracts,
		MeanMultiplier:    reply.MeanMultiplier,
		BucketMultipliers: reply.BucketMultipliers,
	}, true
}

// centralHistory implements bidding.HistoryView over the wire: the
// daemon's history bidder asks the Central Server for recent settled
// contracts similar to the proposed one (§5.2.1).
type centralHistory struct{ d *Daemon }

// SimilarContracts implements bidding.HistoryView.
func (c *centralHistory) SimilarContracts(now float64, ct *qos.Contract, limit int) []bidding.HistoryRecord {
	var reply protocol.HistoryOK
	err := c.d.pool.Call(c.d.centralAddr(), c.d.cfg.RPCTimeout, protocol.TypeHistoryReq,
		protocol.HistoryReq{MaxPE: ct.MaxPE, Limit: limit}, protocol.TypeHistoryOK, &reply)
	if err != nil {
		return nil
	}
	out := make([]bidding.HistoryRecord, len(reply.Records))
	for i, r := range reply.Records {
		out[i] = bidding.HistoryRecord(r)
	}
	return out
}
