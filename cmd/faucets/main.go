// Command faucets is the command-line Faucets Client (paper §2, Fig 2):
// submit jobs with their QoS requirements, monitor them via AppSpector
// (Fig 3), and download outputs — without knowing or caring which
// Compute Server runs the job.
//
// Usage:
//
//	faucets -central host:9100 -user alice -pass pw list
//	faucets ... apps
//	faucets ... credits -cluster turing
//	faucets ... submit -app synth -minpe 4 -maxpe 32 -work 3600 \
//	        -deadline 7200 -in input.dat [-criterion cost|time] [-watch]
//	faucets ... status -job <id> -server host:port
//	faucets ... watch -job <id> -appspector host:9300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"faucets/internal/client"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
)

func main() {
	centralAddr := flag.String("central", "127.0.0.1:9100", "Faucets Central Server address")
	asAddr := flag.String("appspector", "", "AppSpector address (for watch)")
	user := flag.String("user", "", "userid")
	pass := flag.String("pass", "", "password")
	rpcTimeout := flag.Duration("rpc-timeout", 5*time.Second, "deadline for each RPC round trip")
	bidTimeout := flag.Duration("bid-timeout", 0, "per-bid deadline: a daemon that does not answer in time forfeits its bid (0 = rpc-timeout only)")
	mechanism := flag.String("mechanism", "", "market mechanism for submitted jobs: first-price, posted-price, or vickrey (empty = the grid default advertised at login)")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: faucets [flags] list|apps|credits|submit|status|watch")
	}
	if !qos.ValidMechanism(*mechanism) {
		log.Fatalf("-mechanism: unknown mechanism %q (want first-price, posted-price, or vickrey)", *mechanism)
	}
	cl, err := client.LoginTimeout(*centralAddr, *user, *pass, *rpcTimeout)
	if err != nil {
		log.Fatalf("login: %v", err)
	}
	cl.AppSpectorAddr = *asAddr
	cl.BidTimeout = *bidTimeout
	cl.Mechanism = *mechanism
	defer cl.Close()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		cmdList(cl)
	case "apps":
		cmdApps(cl)
	case "credits":
		cmdCredits(cl, args)
	case "submit":
		cmdSubmit(cl, args)
	case "watch":
		cmdWatch(cl, args)
	case "kill":
		cmdKill(cl, args)
	case "status":
		cmdStatus(cl, args)
	case "fetch":
		cmdFetch(cl, args)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

func cmdStatus(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	jobID := fs.String("job", "", "job-ID")
	server := fs.String("server", "", "the job's daemon address host:port")
	_ = fs.Parse(args)
	p := &client.Placement{JobID: *jobID}
	p.Server.Addr = *server
	st, err := cl.Status(p)
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	fmt.Printf("job %s: %s, %d processors, %.1f%% complete\n",
		st.JobID, st.State, st.PEs, st.Progress*100)
}

func cmdFetch(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	jobID := fs.String("job", "", "job-ID")
	server := fs.String("server", "", "the job's daemon address host:port")
	name := fs.String("file", "result.out", "output file name")
	out := fs.String("o", "", "write to this local file instead of stdout")
	_ = fs.Parse(args)
	p := &client.Placement{JobID: *jobID}
	p.Server.Addr = *server
	data, err := cl.FetchOutput(p, *name)
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %d bytes to %s\n", len(data), *out)
}

func cmdKill(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("kill", flag.ExitOnError)
	jobID := fs.String("job", "", "job-ID to terminate")
	server := fs.String("server", "", "the job's daemon address host:port")
	_ = fs.Parse(args)
	p := &client.Placement{JobID: *jobID}
	p.Server.Addr = *server
	reply, err := cl.Kill(p)
	if err != nil {
		log.Fatalf("kill: %v", err)
	}
	fmt.Printf("job %s: %s\n", reply.JobID, reply.State)
}

func cmdList(cl *client.Client) {
	servers, err := cl.ListServers(nil)
	if err != nil {
		log.Fatalf("list: %v", err)
	}
	fmt.Printf("%-16s %-22s %6s %8s %8s %8s  %s\n", "NAME", "ADDR", "PES", "MEM/PE", "SPEED", "$/CPUs", "APPS")
	for _, s := range servers {
		fmt.Printf("%-16s %-22s %6d %8d %8.2f %8.4f  %v\n",
			s.Spec.Name, s.Addr, s.Spec.NumPE, s.Spec.MemPerPE, s.Spec.Speed, s.Spec.CostRate, s.Apps)
	}
}

func cmdApps(cl *client.Client) {
	apps, err := cl.ListApps()
	if err != nil {
		log.Fatalf("apps: %v", err)
	}
	for _, a := range apps {
		fmt.Println(a)
	}
}

func cmdCredits(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("credits", flag.ExitOnError)
	cluster := fs.String("cluster", "", "cluster name")
	_ = fs.Parse(args)
	credits, err := cl.Credits(*cluster)
	if err != nil {
		log.Fatalf("credits: %v", err)
	}
	fmt.Printf("%s: %.2f credits\n", *cluster, credits)
}

// cmdSubmit is the CLI equivalent of the paper's Fig 2 submission
// dialog: application name, minpe/maxpe, estimated work, deadline, and
// files to upload.
func cmdSubmit(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	app := fs.String("app", "", "application name (one of the grid's Known Applications)")
	minpe := fs.Int("minpe", 1, "minimum processors")
	maxpe := fs.Int("maxpe", 1, "maximum processors")
	work := fs.Float64("work", 60, "total CPU-seconds on the reference machine")
	memPerPE := fs.Int("mem", 0, "required memory per processor, MB")
	deadline := fs.Float64("deadline", 0, "hard deadline, seconds from submission (0 = none)")
	payoff := fs.Float64("payoff", 0, "payoff value for completing by the soft deadline (0 = none)")
	crit := fs.String("criterion", "cost", "bid selection: cost, time, or weighted")
	priceWeight := fs.Float64("price-weight", 1, "price weight (criterion=weighted)")
	timeWeight := fs.Float64("time-weight", 0.01, "completion-time weight (criterion=weighted)")
	in := fs.String("in", "", "input file to upload (optional)")
	watch := fs.Bool("watch", false, "stream AppSpector telemetry after starting")
	wait := fs.Bool("wait", false, "block until the job finishes, then download result.out")
	_ = fs.Parse(args)

	c := &qos.Contract{App: *app, MinPE: *minpe, MaxPE: *maxpe, Work: *work, MemPerPE: *memPerPE}
	if *payoff > 0 && *deadline > 0 {
		c.Payoff = qos.WithDeadline(*payoff, *deadline/2, *deadline, *payoff/4)
	} else if *deadline > 0 {
		c.Deadline = *deadline
	}
	var criterion market.Criterion = market.LeastCost{}
	switch *crit {
	case "time":
		criterion = market.EarliestCompletion{}
	case "weighted":
		criterion = market.Weighted{PriceWeight: *priceWeight, TimeWeight: *timeWeight}
	}

	p, err := cl.Place(c, criterion)
	if err != nil {
		log.Fatalf("place: %v", err)
	}
	fmt.Printf("job %s awarded to %s: price $%.2f (x%.2f), promised completion t=%.0fs, %d commit attempt(s)\n",
		p.JobID, p.Server.Spec.Name, p.Bid.Price, p.Bid.Multiplier, p.Bid.EstCompletion, p.Attempts)

	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			log.Fatalf("read %s: %v", *in, err)
		}
		if err := cl.Upload(p, *in, data); err != nil {
			log.Fatalf("upload: %v", err)
		}
		fmt.Printf("uploaded %s (%d bytes)\n", *in, len(data))
	}
	if err := cl.Start(p); err != nil {
		log.Fatalf("start: %v", err)
	}
	fmt.Printf("job %s started\n", p.JobID)

	if *watch {
		var sum watchSummary
		if err := cl.Watch(p.JobID, true, sum.observe); err != nil {
			log.Fatalf("watch: %v", err)
		}
		sum.print()
	}
	if *wait {
		st, err := cl.WaitFinished(p, 24*time.Hour)
		if err != nil {
			log.Fatalf("wait: %v", err)
		}
		fmt.Printf("job %s %s\n", p.JobID, st.State)
		out, err := cl.FetchOutput(p, "result.out")
		if err == nil {
			fmt.Printf("result.out:\n%s", out)
		}
	}
}

func cmdWatch(cl *client.Client, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	jobID := fs.String("job", "", "job-ID to monitor")
	_ = fs.Parse(args)
	var sum watchSummary
	if err := cl.Watch(*jobID, true, sum.observe); err != nil {
		log.Fatalf("watch: %v", err)
	}
	sum.print()
}

// printTelemetry renders one Fig 3-style line: the generic
// utilization/progress section plus any application-specific output.
func printTelemetry(t protocol.Telemetry) bool {
	fmt.Printf("[t=%8.1f] %-12s pes=%-4d util=%5.1f%% done=%5.1f%%",
		t.Time, t.State, t.PEs, t.Util*100, t.Done*100)
	if t.Output != "" {
		fmt.Printf("  | %s", t.Output)
	}
	fmt.Println()
	return true
}

// watchSummary accumulates the stream into the generic utilization
// section of the Fig 3 display, printed once the stream ends.
type watchSummary struct {
	samples  int
	peakPEs  int
	utilSum  float64
	lastDone float64
	state    string
}

func (s *watchSummary) observe(t protocol.Telemetry) bool {
	s.samples++
	if t.PEs > s.peakPEs {
		s.peakPEs = t.PEs
	}
	s.utilSum += t.Util
	s.lastDone = t.Done
	s.state = t.State
	return printTelemetry(t)
}

func (s *watchSummary) print() {
	if s.samples == 0 {
		return
	}
	fmt.Printf("utilization: %d samples, peak %d processors, mean utilization %.1f%%, progress %.1f%%, state %s\n",
		s.samples, s.peakPEs, s.utilSum/float64(s.samples)*100, s.lastDone*100, s.state)
}
