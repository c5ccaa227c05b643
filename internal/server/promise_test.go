package server

import (
	"fmt"
	"testing"

	"faucets/internal/bidding"
	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

func spec(numPE int) machine.Spec {
	return machine.Spec{Name: "test", NumPE: numPE, MemPerPE: 1024, CPUType: "x86", Speed: 1.0, CostRate: 0.01}
}

// promiseContract is a valid contract decoded from four fuzz bytes on a
// machine of total processors: a MinPE that may exceed the machine, a
// MaxPE above it, work, and, when payoff is non-zero, a payoff function
// whose hard deadline is about payoff seconds.
func promiseContract(total int, min, extra uint8, work, payoff uint16) *qos.Contract {
	c := &qos.Contract{App: "p", MinPE: 1 + int(min)%(total+4), Work: 10 + float64(work)}
	c.MaxPE = c.MinPE + int(extra)%total
	if payoff > 0 {
		c.Payoff = qos.Payoff{Soft: 1 + float64(payoff)/2, Hard: 1 + float64(payoff),
			AtSoft: 1 + float64(extra), AtHard: 1 + float64(extra)/2, Penalty: float64(min)}
	}
	return c
}

// FuzzBidIsAPromise: a bid is a binding offer (§5.3). Two cores on one
// scheduling strategy, bidding at the baseline, are driven through the
// same fuzzed commits and submits, advances and kills; at the final
// instant one is asked for a Bid on a contract, and the other is handed a
// Commit and then a Submit of a job with it, at that instant. A Bid that
// says ok must be a job the Submit admits, for every strategy. Profit and
// equipartition also decline only what Submit refuses. The rigid queues
// may decline a job Submit would queue: their estimate needs an instant
// the job's rigid size frees, and a running job that reports no
// completion gives none, while Submit queues any job that fits the
// machine.
func FuzzBidIsAPromise(f *testing.F) {
	// Profit, lookahead 600, a 16-PE machine with 12 PEs held by a long
	// job: the probe runs at once on the 4 left but needs 500 s against a
	// 301 s hard deadline. An estimate that skips the deadline bids.
	f.Add(uint8(3), uint8(15), uint8(3), []byte{0, 11, 0, 200, 0}, uint8(3), uint8(0), uint16(1990), uint16(300))
	// Profit with preemption and lookahead 200, a queue behind a full
	// machine, and a probe that must wait past the lookahead.
	f.Add(uint8(3), uint8(7), uint8(5), []byte{0, 7, 0, 50, 0, 1, 3, 2, 9, 40, 2, 30, 0, 0, 0, 0, 7, 1, 90, 0}, uint8(5), uint8(2), uint16(900), uint16(0))
	// Equipartition with a kill and a deadline-carrying job.
	f.Add(uint8(2), uint8(31), uint8(0), []byte{1, 3, 8, 20, 5, 0, 30, 0, 200, 0, 3, 0, 0, 0, 0, 2, 4, 0, 0, 0}, uint8(20), uint8(4), uint16(400), uint16(90))
	// FCFS and backfill behind a blocked head.
	f.Add(uint8(0), uint8(15), uint8(0), []byte{0, 10, 0, 100, 0, 0, 12, 0, 30, 0, 0, 2, 0, 5, 0}, uint8(4), uint8(0), uint16(100), uint16(0))
	f.Add(uint8(1), uint8(15), uint8(0), []byte{0, 10, 0, 100, 0, 0, 12, 0, 30, 0, 0, 2, 0, 5, 0}, uint8(1), uint8(0), uint16(100), uint16(0))
	strategies := []string{"fcfs", "backfill", "equipartition", "profit"}
	f.Fuzz(func(t *testing.T, strat, pe, cfgBits uint8, ops []byte, min, extra uint8, work, payoff uint16) {
		name := strategies[int(strat)%len(strategies)]
		newSched, err := scheduler.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		total := 1 + int(pe)%64
		cfg := scheduler.Config{Lookahead: float64(cfgBits&3) * 200, Preempt: cfgBits&4 != 0, ReconfigLatency: float64(cfgBits>>3&1) * 5}
		if len(ops) > 200 {
			ops = ops[:200]
		}
		// drive replays ops on a fresh core and returns it with the
		// instant the ops end at. Each op is five bytes: a kind, then its
		// arguments.
		drive := func() (*Core, float64) {
			s := new(Core)
			s.Reset(spec(total), newSched(spec(total), cfg), bidding.Baseline{})
			now := 0.0
			var jobs []*job.Job
			for i := 0; i+5 <= len(ops); i += 5 {
				op := ops[i : i+5]
				switch op[0] % 4 {
				case 0, 1: // submit, with a deadline when the kind is 1
					var p uint16
					if op[0]%4 == 1 {
						p = 20 + uint16(op[3])*4
					}
					j := job.New(job.ID(fmt.Sprint(i)), "u", promiseContract(total, op[1], op[2], uint16(op[3])*40, p), now)
					if err := s.Commit(now, string(j.ID), "u", bidding.Bid{}); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Submit(now, j); err == nil {
						jobs = append(jobs, j)
					}
				case 2: // advance
					now += 1 + float64(op[1])*5
					s.Advance(now)
				case 3: // kill
					if len(jobs) > 0 {
						s.Kill(now, jobs[int(op[1])%len(jobs)])
					}
				}
			}
			return s, now
		}
		c := promiseContract(total, min, extra, work, payoff)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		bidder, now := drive()
		admitter, _ := drive()
		b, bid := bidder.Bid(now, c, bidder.State(now, c))
		if err := admitter.Commit(now, "probe", "u", b); err != nil {
			t.Fatal(err)
		}
		_, err = admitter.Submit(now, job.New("probe", "u", c, now))
		admitted := err == nil
		if bid && !admitted {
			t.Fatalf("%s at %v: bid (completion %v) on [%d,%d] work %v payoff %+v, then refused it: %v",
				name, now, b.EstCompletion, c.MinPE, c.MaxPE, c.Work, c.Payoff, err)
		}
		if !bid && admitted && (name == "profit" || name == "equipartition") {
			t.Fatalf("%s at %v: declined to bid on [%d,%d] work %v payoff %+v, then admitted it",
				name, now, c.MinPE, c.MaxPE, c.Work, c.Payoff)
		}
	})
}
