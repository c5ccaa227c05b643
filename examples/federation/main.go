// Federation: the distributed Faucets system §5.1 anticipates — "in
// future, the broadcast itself will be handled by a distributed Faucets
// system, making the potential-server selection scale up." Two Central
// Servers peer with each other and pull each other's directory digest on
// a short timer; Compute Servers register with whichever is closest; a
// client talking to either sees the whole grid and can run jobs anywhere
// in it, and no directory read waits on the other campus.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"faucets/internal/accounting"
	"faucets/internal/central"
	"faucets/internal/daemon"
	"faucets/internal/machine"
	"faucets/internal/market"
	"faucets/internal/protocol"
	"faucets/internal/qos"
	"faucets/internal/scheduler"

	clientpkg "faucets/internal/client"
)

func listen() net.Listener {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return l
}

func startCentral(name string) (*central.Server, string) {
	fs := central.New(accounting.Dollars)
	l := listen()
	go fs.Serve(l)
	fmt.Printf("central server %q on %s\n", name, l.Addr())
	return fs, l.Addr().String()
}

func startDaemon(name string, pe int, centralAddr string) *daemon.Daemon {
	spec := machine.Spec{Name: name, NumPE: pe, MemPerPE: 2048, CPUType: "x86", Speed: 1, CostRate: 0.01}
	d, err := daemon.New(daemon.Config{
		Info:        protocol.ServerInfo{Spec: spec, Apps: []string{"synth"}},
		Scheduler:   scheduler.NewEquipartition(spec, scheduler.Config{}),
		CentralAddr: centralAddr,
		TimeScale:   1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(listen()); err != nil {
		log.Fatal(err)
	}
	return d
}

func main() {
	// Two peered Central Servers — say, one per campus.
	fsEast, eastAddr := startCentral("east")
	fsWest, westAddr := startCentral("west")
	defer fsEast.Close()
	defer fsWest.Close()
	fsEast.SetPeers([]string{westAddr})
	fsWest.SetPeers([]string{eastAddr})
	_ = fsEast.Auth.AddUser("alice", "pw", "")

	// Each campus runs its own Compute Servers, registered locally
	// (registration is synchronous: both directories are populated here).
	d1 := startDaemon("east-cluster", 32, eastAddr)
	d2 := startDaemon("west-cluster", 128, westAddr)
	defer d1.Close()
	defer d2.Close()

	// Gossip starts with one pull at once, then one per interval; the
	// explicit round only spares this example a wait for the first.
	fsEast.StartGossip()
	fsWest.StartGossip()
	fsEast.GossipOnce()
	fmt.Printf("\neast pulls west's digest every %v and answers from its cache\n", central.DefaultGossipInterval)

	// Alice only knows the east Central Server…
	cl, err := clientpkg.Login(eastAddr, "alice", "pw")
	if err != nil {
		log.Fatal(err)
	}
	servers, err := cl.ListServers(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndirectory seen through east:")
	for _, s := range servers {
		fmt.Printf("  %-14s %4d PEs (%s)\n", s.Spec.Name, s.Spec.NumPE, s.Addr)
	}

	// …yet her 64-processor job lands on the west campus, the only
	// machine big enough, via the federated directory.
	big := &qos.Contract{App: "synth", MinPE: 64, MaxPE: 64, Work: 64 * 30}
	p, err := cl.Place(big, market.LeastCost{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njob %s awarded to %s for $%.2f\n", p.JobID, p.Server.Spec.Name, p.Bid.Price)
	if err := cl.Start(p); err != nil {
		log.Fatal(err)
	}
	st, err := cl.WaitFinished(p, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s %s on the %s campus — one point of contact, the whole grid (§5.1)\n",
		p.JobID, st.State, p.Server.Spec.Name)
}
