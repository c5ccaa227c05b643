package daemon

import (
	"time"

	"faucets/internal/telemetry"
)

// fdMetrics holds the Faucets Daemon's pre-resolved instruments, so the
// scheduler loop and RPC dispatch record with plain atomic updates.
type fdMetrics struct {
	bids            *telemetry.Counter   // bid requests answered with a bid
	bidsDeclined    *telemetry.Counter   // bid requests declined (§5.1 "may decline")
	jobsAdmitted    *telemetry.Counter   // jobs accepted by the scheduler
	jobsRejected    *telemetry.Counter   // submissions the scheduler refused
	jobsFinished    *telemetry.Counter   // jobs run to completion
	jobsKilled      *telemetry.Counter   // jobs killed by their owner
	settleAcked     *telemetry.Counter   // settlements the Central Server acknowledged
	outboxPoison    *telemetry.Counter   // settlements permanently refused and dropped
	verifyCacheHits *telemetry.Counter   // credential checks answered from the verify cache
	wakeups         *telemetry.Counter   // run-loop passes (timer fires and kicks)
	monitorDrops    *telemetry.Counter   // AppSpector frames dropped (queue full or monitor unreachable)
	queueDepth      *telemetry.Gauge     // scheduler queue length
	runningJobs     *telemetry.Gauge     // jobs currently executing
	usedPEs         *telemetry.Gauge     // processors allocated to running jobs
	outboxDepth     *telemetry.Gauge     // settlements awaiting acknowledgement
	finishLag       *telemetry.Histogram // scheduler completion instant → finish span
	journalAppend   *telemetry.Histogram // journal record append latency (one write, no fsync)
	journalRewr     *telemetry.Histogram // journal compaction rewrite latency
}

func newFDMetrics(reg *telemetry.Registry) *fdMetrics {
	return &fdMetrics{
		bids:            reg.Counter("faucets_daemon_bids_total", "Bid requests answered with a bid."),
		bidsDeclined:    reg.Counter("faucets_daemon_bids_declined_total", "Bid requests declined (no capacity, unexported app, or unprofitable)."),
		jobsAdmitted:    reg.Counter("faucets_daemon_jobs_admitted_total", "Jobs the scheduler admitted at submission."),
		jobsRejected:    reg.Counter("faucets_daemon_jobs_rejected_total", "Submissions the scheduler refused."),
		jobsFinished:    reg.Counter("faucets_daemon_jobs_finished_total", "Jobs run to completion and queued for settlement."),
		jobsKilled:      reg.Counter("faucets_daemon_jobs_killed_total", "Jobs killed on their owner's request."),
		settleAcked:     reg.Counter("faucets_daemon_settlements_acked_total", "Settlements acknowledged (or permanently refused) by the Central Server."),
		outboxPoison:    reg.Counter("faucets_daemon_outbox_poison_total", "Settlements the Central Server permanently refused, dropped from the outbox with their job ID logged."),
		verifyCacheHits: reg.Counter("faucets_daemon_verify_cache_hits_total", "Credential verifications answered from the local cache instead of a Central Server round trip."),
		wakeups:         reg.Counter("faucets_daemon_runloop_wakeups_total", "Execution-loop passes: timer fires at the scheduler's next event plus kicks from submit, kill and recovery. Idle daemons make none."),
		monitorDrops:    reg.Counter("faucets_daemon_monitor_drops_total", "Registrations and samples not delivered to AppSpector: the queue was full or the monitor could not be reached."),
		queueDepth:      reg.Gauge("faucets_daemon_queue_depth", "Jobs waiting in the scheduler queue."),
		runningJobs:     reg.Gauge("faucets_daemon_running_jobs", "Jobs currently executing."),
		usedPEs:         reg.Gauge("faucets_daemon_used_pes", "Processors allocated to running jobs."),
		outboxDepth:     reg.Gauge("faucets_daemon_outbox_depth", "Settlements queued for (re)delivery to the Central Server."),
		finishLag:       reg.Histogram("faucets_daemon_finish_lag_seconds", "Wall time from the instant the scheduler says a job completed to its finish span.", nil),
		journalAppend:   reg.Histogram("faucets_daemon_journal_append_seconds", "Journal record append latency.", nil),
		journalRewr:     reg.Histogram("faucets_daemon_journal_rewrite_seconds", "Journal compaction rewrite+fsync latency.", nil),
	}
}

// journalAppend journals one record, timing the append. A daemon
// without a journal records nothing (the latency of a no-op would only
// pollute the histogram's low buckets).
func (d *Daemon) journalAppend(rec journalRecord) {
	if d.journal == nil {
		return
	}
	start := time.Now()
	d.journal.append(rec)
	d.met.journalAppend.Observe(time.Since(start).Seconds())
}

// journalRewrite rewrites the journal compacted, timing the rewrite.
func (d *Daemon) journalRewrite(recs []journalRecord) error {
	if d.journal == nil {
		return nil
	}
	start := time.Now()
	err := d.journal.rewrite(recs)
	d.met.journalRewr.Observe(time.Since(start).Seconds())
	return err
}
