// Adaptive: the paper's §1 internal-fragmentation scenario, run live on
// both schedulers. A 1000-processor machine runs a long, relatively
// unimportant job B on 500 processors. An urgent job A needing 600
// processors arrives. Under a traditional rigid queueing system A
// languishes while 500 processors idle; the adaptive job scheduler
// shrinks B to 400 processors and runs A immediately, fully utilizing
// the machine (§4).
package main

import (
	"fmt"

	"faucets/internal/job"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/scheduler"
)

func run(name string, s scheduler.Scheduler) {
	fmt.Printf("=== %s scheduler ===\n", name)
	b := job.New("B", "user", &qos.Contract{
		App: "long-unimportant", MinPE: 400, MaxPE: 500, Work: 500 * 3600,
	}, 0)
	s.Submit(0, b)
	fmt.Printf("t=0    : B starts on %d PEs (machine %d/1000 busy)\n", b.PEs(), s.UsedPEs())

	s.Advance(100)
	a := job.New("A", "user", &qos.Contract{
		App: "urgent-important", MinPE: 600, MaxPE: 600, Work: 600 * 60,
	}, 100)
	s.Submit(100, a)
	switch a.State() {
	case job.Running:
		fmt.Printf("t=100  : urgent A starts at once on %d PEs; B shrunk to %d PEs (machine %d/1000 busy)\n",
			a.PEs(), b.PEs(), s.UsedPEs())
	default:
		fmt.Printf("t=100  : urgent A queued — only %d PEs free while B holds %d (machine %d/1000 busy)\n",
			1000-s.UsedPEs(), b.PEs(), s.UsedPEs())
	}

	// Drive to completion of both jobs, reading finishes off the log.
	var log []scheduler.Event
	s.Record(&log)
	now := 100.0
	for (a.State() != job.Finished || b.State() != job.Finished) && now < 1e7 {
		t, ok := s.NextCompletion(now)
		if !ok {
			break
		}
		now, log = t, log[:0]
		s.Advance(now)
		for _, e := range log {
			if f := e.Job; e.Kind == scheduler.Finish {
				fmt.Printf("t=%-5.0f: %s finished (response %.0fs)\n", now, f.ID, f.ResponseTime())
			}
		}
	}
	fmt.Println()
}

func main() {
	spec := machine.Spec{Name: "hpc1000", NumPE: 1000, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
	run("rigid FCFS", scheduler.NewFCFS(spec, scheduler.Config{}))
	run("adaptive equipartition", scheduler.NewEquipartition(spec, scheduler.Config{ReconfigLatency: 10}))

	fmt.Println("The adaptive scheduler turns 3500 seconds of waiting (and 500 idle")
	fmt.Println("processors) into an immediate start: the exact motivation of paper §1.")
}
