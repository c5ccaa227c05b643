package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// layerValues holds one workload's per-layer metrics by name. Every name
// in perLayer is present; one nobody fills stays 0, which is the stated
// reading for a layer that does no work on that workload.
type layerValues map[string]float64

func newLayerValues() layerValues {
	lv := layerValues{}
	for _, l := range perLayer {
		lv[l.Name] = 0
	}
	return lv
}

// fromTrips fills the metrics timed around the client calls and read
// from the tracer's events over one traced trip window.
func (lv layerValues) fromTrips(ph *tripPhase) {
	lv["client.place_p50_us"] = ph.place.pct(50)
	lv["client.start_p50_us"] = ph.start.pct(50)
	lv["client.trip_p99_ms"], _ = ph.trip.tail(99)
	lv["client.ttc_p99_ms"], _ = ph.ttc.tail(99)
	lv["client.submit_lag_max_ms"] = ph.lag.max()
	lv["client.inflight_max"] = float64(ph.inflightMax.Load())
	lv["central.list_servers_rtt_p50_us"] = ph.list.pct(50)
	lv["market.solicit_p50_us"] = ph.sol.pct(50)
	lv["market.commit_p50_us"] = ph.comm.pct(50)
	lv["market.commit_attempts_per_job"] = ratio(float64(ph.attempts), float64(len(ph.trip)))
	lv["daemon.run_wait_p50_ms"] = ph.runWait.pct(50)
	lv["daemon.outbox_depth_max"] = float64(ph.outboxMax)
	// How much of the median trip the four sequential stages explain:
	// near 100 means the per-layer timers add up to the whole.
	stages := ph.place.pct(50)/1e3 + ph.start.pct(50)/1e3 + ph.runWait.pct(50) + ph.settleLag.pct(50)
	lv["grid.trip_attributed_pct"] = 100 * ratio(stages, ph.trip.pct(50))
}

// fromScrape fills the counts taken from the components' own registries,
// as deltas over one window that completed `jobs` jobs.
func (lv layerValues) fromScrape(d delta, jobs float64) {
	lv["protocol.rpcs_per_job"] = ratio(d.count("faucets_rpc_pool_checkouts_total"), jobs)
	lv["protocol.redials_per_kjob"] = 1000 * ratio(d.count("faucets_rpc_pool_redials_total"), jobs)
	lv["protocol.pool_open_conns"] = seriesSum(d.gauges, "faucets_rpc_pool_open_conns")

	bids := d.count("faucets_daemon_bids_total")
	declined := d.count("faucets_daemon_bids_declined_total")
	lv["market.bids_per_auction"] = ratio(bids, jobs)
	lv["daemon.bids_declined_ratio"] = ratio(declined, bids+declined)
	hits := d.count("faucets_daemon_verify_cache_hits_total")
	misses := d.count(`faucets_rpc_latency_seconds_count{component="daemon",type="verify_req"}`)
	lv["daemon.verify_cache_hit_ratio"] = ratio(hits, hits+misses)
	lv["daemon.journal_append_p50_us"] = 1e6 * d.histogramQuantile("faucets_daemon_journal_append_seconds", 0.5)

	lv["central.shed_total"] = d.count("faucets_central_shed_total")
	lv["central.settle_retries_total"] = d.count("faucets_central_settle_retries_total")
	lv["central.not_owner_per_job"] = ratio(d.count("faucets_central_not_owner_total"), jobs)
	lv["central.forwarded_settles_per_job"] = ratio(d.count("faucets_central_forwarded_settles_total"), jobs)
	lv["central.gossip_msgs_per_s"] = ratio(d.count("faucets_central_gossip_sent_total"), d.elapsed.Seconds())

	settles := d.count("faucets_central_jobs_settled_total")
	lv["db.fsyncs_per_settle"] = ratio(d.count("faucets_db_wal_sync_total"), settles)
	lv["db.group_batch_mean"] = ratio(d.count("faucets_db_group_commit_batch_size_sum"), d.count("faucets_db_group_commit_batch_size_count"))
	lv["db.wal_bytes_per_settle"] = ratio(float64(d.walBytes), settles)
}

// fromProcess fills the whole-process figures as of the given snapshot.
func (lv layerValues) fromProcess(s snapshot) {
	lv["grid.peak_rss_mb"] = float64(s.maxRSSKB) / 1024
	lv["grid.gc_pause_total_ms"] = float64(s.gcPause) / 1e6
	lv["grid.goroutines_end"] = float64(runtime.NumGoroutine())
}

// histogramQuantile estimates the q-quantile of what a histogram observed
// over the window from its cumulative buckets, summed over every label
// set, interpolating linearly inside the bucket that holds the rank. The
// answer is only as fine as the component's bucket bounds.
func (d delta) histogramQuantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	prefix := name + "_bucket{"
	for key, v := range d.counts {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		i := strings.Index(key, `le="`)
		if i < 0 {
			continue
		}
		le := key[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*ratio(rank-below, cum[b]-below)
		}
		lo, below = b, cum[b]
	}
	return lo
}
