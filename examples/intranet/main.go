// Intranet: the §5.5.4 context — a company pools its Compute Server
// among internal users, with "different jobs [having] priorities
// assigned by management. Pre-emption of low priority jobs may be
// allowed (with automatic restart from a checkpoint later)."
//
// Priorities are expressed as payoff functions (the higher the payoff,
// the more important management considers the job) and enforced by the
// profit scheduler's preemption mechanism: when the nightly-report job
// arrives, the batch jobs are checkpointed, and they automatically
// restart from their checkpoints once the urgent work completes.
package main

import (
	"fmt"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

func main() {
	spec := machine.Spec{Name: "corp-hpc", NumPE: 128, MemPerPE: 4096, CPUType: "x86", Speed: 1, CostRate: 0}
	s := scheduler.NewProfit(spec, scheduler.Config{Preempt: true, Lookahead: 1e9})

	// Low-priority overnight batch jobs fill the machine.
	var batch []*job.Job
	for i := 0; i < 4; i++ {
		b := job.New(job.ID(fmt.Sprintf("batch-%d", i)), "eng", &qos.Contract{
			App: "regression-suite", MinPE: 32, MaxPE: 32, Work: 32 * 7200,
			Payoff: qos.Payoff{Soft: 1e6, Hard: 2e6, AtSoft: 1, AtHard: 0.5},
		}, 0)
		if !s.Submit(0, b) {
			panic("batch job rejected on an idle machine")
		}
		batch = append(batch, b)
	}
	fmt.Printf("t=0     : %d batch jobs running, machine %d/128 busy\n",
		s.RunningCount(), s.UsedPEs())

	// Management's urgent job arrives: the quarterly risk report, due in
	// 30 minutes, needs the whole machine.
	s.Advance(600)
	urgent := job.New("risk-report", "cfo", &qos.Contract{
		App: "risk-report", MinPE: 128, MaxPE: 128, Work: 128 * 900,
		Payoff: qos.Payoff{Soft: 1500, Hard: 1800, AtSoft: 100000, AtHard: 10000, Penalty: 50000},
	}, 600)
	if !s.Submit(600, urgent) {
		panic("urgent job rejected")
	}
	checkpointed := 0
	for _, b := range batch {
		if b.State() == job.Checkpointed {
			checkpointed++
		}
	}
	fmt.Printf("t=600   : risk-report arrives → %d batch jobs checkpointed, urgent on %d PEs\n",
		checkpointed, urgent.PEs())

	// Drive to completion.
	now := 600.0
	for {
		t, ok := s.NextCompletion(now)
		if !ok {
			break
		}
		now = t
		for _, f := range s.Advance(now) {
			met := ""
			if !f.Contract.Payoff.Zero() && f.MetDeadline() {
				met = " (deadline met)"
			}
			fmt.Printf("t=%-6.0f: %s finished%s\n", now, f.ID, met)
		}
	}
	fmt.Printf("\nEvery batch job was checkpointed, restarted automatically, and\n")
	fmt.Printf("completed — total checkpoints: %d. The urgent job met its deadline\n", totalCheckpoints(batch))
	fmt.Printf("without an operator touching the queue (§5.5.4).\n")
	fmt.Printf("scheduler recorded %d preemptions\n", s.Preemptions())
}

func totalCheckpoints(jobs []*job.Job) int {
	n := 0
	for _, j := range jobs {
		n += j.Checkpoints()
	}
	return n
}
