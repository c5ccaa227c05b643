package protocol

import (
	"slices"

	"faucets/internal/bidding"
	"faucets/internal/machine"
	"faucets/internal/qos"
	"faucets/internal/weather"
)

// Frame type constants. Requests end in "_req", replies in "_ok";
// TypeError is the generic failure reply.
const (
	TypeError = "error"

	// Client ↔ Faucets Central Server.
	TypeAuthReq        = "auth_req"
	TypeAuthOK         = "auth_ok"
	TypeListServersReq = "list_servers_req"
	TypeListServersOK  = "list_servers_ok"
	TypeListAppsReq    = "list_apps_req"
	TypeListAppsOK     = "list_apps_ok"
	TypeCreditsReq     = "credits_req"
	TypeCreditsOK      = "credits_ok"

	// Daemon ↔ Central Server.
	TypeRegisterReq   = "register_req"
	TypeRegisterOK    = "register_ok"
	TypePollReq       = "poll_req"
	TypePollOK        = "poll_ok"
	TypeVerifyReq     = "verify_req"
	TypeVerifyOK      = "verify_ok"
	TypeSettleReq     = "settle_req"
	TypeSettleOK      = "settle_ok"
	TypeWeatherReq    = "weather_req"
	TypeWeatherOK     = "weather_ok"
	TypePeerVerifyReq = "peer_verify_req"
	TypeHistoryReq    = "history_req"
	TypeHistoryOK     = "history_ok"

	// Central Server ↔ Central Server (federation gossip, shard mesh).
	TypeGossipReq        = "gossip_req"
	TypeGossipOK         = "gossip_ok"
	TypeForwardSettleReq = "forward_settle_req"

	// Client ↔ Daemon.
	TypeBidReq    = "bid_req"
	TypeBidOK     = "bid_ok"
	TypeCommitReq = "commit_req"
	TypeCommitOK  = "commit_ok"
	TypeSubmitReq = "submit_req"
	TypeSubmitOK  = "submit_ok"
	TypeUploadReq = "upload_req"
	TypeUploadOK  = "upload_ok"
	TypeStatusReq = "status_req"
	TypeStatusOK  = "status_ok"
	TypeOutputReq = "output_req"
	TypeOutputOK  = "output_ok"
	TypeKillReq   = "kill_req"
	TypeKillOK    = "kill_ok"

	// Job/Daemon ↔ AppSpector, Client ↔ AppSpector.
	TypeASRegisterReq = "as_register_req"
	TypeTelemetry     = "telemetry"
	TypeWatchReq      = "watch_req"
	TypeWatchOK       = "watch_ok"
	TypeWatchEnd      = "watch_end"
)

// ErrorBody carries a remote failure description. Retryable marks a
// transient server-side failure (the request itself was acceptable);
// absent on the wire it decodes false, so old peers interoperate.
type ErrorBody struct {
	Message   string `json:"message"`
	Retryable bool   `json:"retryable,omitempty"`
}

// AuthReq authenticates a user to the Faucets Central Server with a
// userid/password pair (paper §2.2).
type AuthReq struct {
	User     string `json:"user"`
	Password string `json:"password"`
}

// AuthOK returns the session token embedded in subsequent requests.
// Mechanism, when set, advertises the grid's default market mechanism
// (one of the qos.Mechanism* names); clients without an explicit
// -mechanism adopt it. Shards, when set, is the full shard-ring address
// list of a sharded Central Server mesh; clients cache it to route
// future logins straight to the owning shard. Absent (single-shard
// grids) the login path is byte-identical to the pre-sharding wire.
type AuthOK struct {
	Token     string   `json:"token"`
	Mechanism string   `json:"mechanism,omitempty"`
	Shards    []string `json:"shards,omitempty"`
}

// ServerInfo is one entry of the Central Server's directory of Compute
// Servers (paper §2).
type ServerInfo struct {
	Spec machine.Spec `json:"spec"`
	Addr string       `json:"addr"` // host:port of the server's Faucets Daemon
	Apps []string     `json:"apps"` // exported "Known Applications" (§2.2)
	// Home is the cluster name for bartering home-cluster affinity
	// (§5.5.3); equals Spec.Name by default.
	Home string `json:"home,omitempty"`
	// UsedPE is the server's busy-processor count from its most recent
	// liveness poll — the published weather the posted-price commodity
	// market derives each server's post from, with no extra round trip.
	UsedPE int `json:"used_pe,omitempty"`
}

// Exports reports whether app is among the server's exported Known
// Applications (§2.2). A server that exports no list runs anything.
func (s *ServerInfo) Exports(app string) bool {
	return len(s.Apps) == 0 || slices.Contains(s.Apps, app)
}

// Matches applies the static filters of §5.1 — what a directory entry
// alone can say: the machine could ever run the contract and exports its
// application.
func (s *ServerInfo) Matches(c *qos.Contract) bool {
	return c.FitsMachine(s.Spec.NumPE, s.Spec.MemPerPE) && s.Exports(c.App)
}

// ListServersReq asks the Central Server for Compute Servers matching a
// contract. Filters are applied server-side (§5.1).
type ListServersReq struct {
	Token    string        `json:"token"`
	Contract *qos.Contract `json:"contract,omitempty"` // nil lists everything
}

// ListServersOK carries the filtered directory.
type ListServersOK struct {
	Servers []ServerInfo `json:"servers"`
}

// ListAppsReq asks for the applications a user may run.
type ListAppsReq struct {
	Token string `json:"token"`
}

// ListAppsOK lists registered applications.
type ListAppsOK struct {
	Apps []string `json:"apps"`
}

// CreditsReq queries the bartering ledger (§5.5.3).
type CreditsReq struct {
	Token   string `json:"token"`
	Cluster string `json:"cluster"`
}

// CreditsOK returns a cluster's credit balance.
type CreditsOK struct {
	Cluster string  `json:"cluster"`
	Credits float64 `json:"credits"`
}

// PeerVerifyReq asks a peer Central Server whether it can vouch for a
// user's token (federated authentication, §5.1). Answered from the
// local session store only — never relayed onward — so verification
// cannot cycle through the peer graph.
type PeerVerifyReq struct {
	User  string `json:"user"`
	Token string `json:"token"`
}

// RegisterReq announces a Faucets Daemon to the Central Server at
// startup (paper §2: "at startup each FD registers itself with the
// Faucets Central Server").
type RegisterReq struct {
	Info ServerInfo `json:"info"`
}

// RegisterOK acknowledges registration.
type RegisterOK struct{}

// PollReq is the Central Server's liveness/status probe ("refreshes the
// list by periodically polling the corresponding FDs").
type PollReq struct{}

// PollOK reports the daemon's dynamic state, used by the §5.1 dynamic
// filters.
type PollOK struct {
	UsedPE   int `json:"used_pe"`
	QueueLen int `json:"queue_len"`
	Running  int `json:"running"`
}

// VerifyReq is the daemon's re-verification of a client's credentials
// with the Central Server ("since the FD does not have any accounting
// information, it contacts the Faucets Central Server again to verify
// the user's authenticity", §2.2).
type VerifyReq struct {
	User  string `json:"user"`
	Token string `json:"token"`
}

// VerifyOK confirms the user.
type VerifyOK struct {
	User string `json:"user"`
}

// SettleReq reports a finished job's billing to the Central Server:
// price actually charged and, in bartering mode, the credit transfer
// between home cluster and executing cluster. The contract shape (App,
// MinPE, MaxPE) rides along so the §5.2.1 history keeps per-bucket
// price statistics — without it every settled contract would collapse
// into one histogram bucket and bid generators would price blind.
// Admission numbers the run on Server, the same on every redelivery: the
// Central Server books each run once, so a reused job ID is paid again.
type SettleReq struct {
	JobID       string  `json:"job_id"`
	User        string  `json:"user"`
	Server      string  `json:"server"`
	HomeCluster string  `json:"home_cluster,omitempty"`
	App         string  `json:"app,omitempty"`
	MinPE       int     `json:"min_pe,omitempty"`
	MaxPE       int     `json:"max_pe,omitempty"`
	Price       float64 `json:"price"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	Admission   uint64  `json:"admission,omitempty"`
}

// SettleOK acknowledges settlement.
type SettleOK struct{}

// WeatherReq asks the Central Server for the grid-weather report of
// §5.2.1 — the global information bid generators consult ("how busy is
// the entire computational grid likely to be…?").
type WeatherReq struct{}

// WeatherOK carries the report, as weather.Report's own fields.
type WeatherOK weather.Report

// HistoryReq asks the Central Server for recent settled contracts
// similar to a proposed one (§5.2.1: "maintaining a history of every
// individual contract over recent time periods"). Similarity is the
// processor-demand bucket of MaxPE.
type HistoryReq struct {
	MaxPE int `json:"max_pe"`
	Limit int `json:"limit"`
}

// HistoryOK returns the matching recent contracts, newest first.
type HistoryOK struct {
	Records []bidding.HistoryRecord `json:"records"`
}

// WeatherDigest is the compact grid-weather summary a Central Server
// gives its peers: fleet size and the price signal, but not the
// per-bucket multiplier map (buckets stay local — they are advisory and
// large).
type WeatherDigest struct {
	Servers        int     `json:"servers"`
	TotalPE        int     `json:"total_pe"`
	UsedPE         int     `json:"used_pe"`
	Contracts      int     `json:"contracts"`
	MeanMultiplier float64 `json:"mean_multiplier"`
}

// GossipReq is one Central Server pulling a peer's digest. It carries
// nothing: peers are the addresses a server dials, so the caller already
// knows whose answer it holds, and a server only ever stores what it
// fetched itself — no frame can push directory entries into it.
type GossipReq struct{}

// GossipOK is the answering server's digest: its live LOCAL directory
// entries plus its local weather summary, never anything it learned from
// its own peers, so digests compose without recursion or double counting.
type GossipOK struct {
	Servers []ServerInfo  `json:"servers"`
	Weather WeatherDigest `json:"weather"`
}

// ForwardSettleReq is a settlement forwarded one hop from the shard a
// daemon reported to, to the shard owning the settling user's
// accounting. It is SettleReq's body under a distinct type so the
// receiver can never forward again — the type itself bounds the hop
// count at one.
type ForwardSettleReq SettleReq

// BidReq solicits a bid from a daemon for a contract.
type BidReq struct {
	User     string        `json:"user"`
	Token    string        `json:"token"`
	Contract *qos.Contract `json:"contract"`
}

// BidOK returns the daemon's offer.
type BidOK struct {
	Bid bidding.Bid `json:"bid"`
}

// CommitReq is phase two of the award protocol (§5.3): the client asks
// the chosen daemon to firmly commit to its bid.
type CommitReq struct {
	User  string      `json:"user"`
	Token string      `json:"token"`
	JobID string      `json:"job_id"`
	Bid   bidding.Bid `json:"bid"`
}

// CommitOK confirms the contract.
type CommitOK struct {
	JobID string `json:"job_id"`
}

// SubmitReq submits a committed job for execution.
type SubmitReq struct {
	User     string        `json:"user"`
	Token    string        `json:"token"`
	JobID    string        `json:"job_id"`
	Contract *qos.Contract `json:"contract"`
}

// SubmitOK acknowledges the start of the job.
type SubmitOK struct {
	JobID string `json:"job_id"`
}

// UploadReq stages one input file chunk to the daemon before the job
// starts (§2: "at this point the client uploads the input files to the
// chosen FD"). Only the job's own user, verified, may upload.
type UploadReq struct {
	User   string `json:"user"`
	Token  string `json:"token"`
	JobID  string `json:"job_id"`
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Data   []byte `json:"data"` // base64 via encoding/json
	// SHA256 is the hex digest of the complete file; sent with the final
	// chunk (Last == true) for integrity verification.
	SHA256 string `json:"sha256,omitempty"`
	Last   bool   `json:"last"`
}

// UploadOK acknowledges a staged chunk.
type UploadOK struct {
	Received int64 `json:"received"`
}

// StatusReq queries a job's state.
type StatusReq struct {
	Token string `json:"token"`
	JobID string `json:"job_id"`
}

// StatusOK reports job state and progress.
type StatusOK struct {
	JobID    string  `json:"job_id"`
	State    string  `json:"state"`
	PEs      int     `json:"pes"`
	Progress float64 `json:"progress"` // fraction of work completed
}

// OutputReq downloads a job's output file (§2: "at any point of the job
// execution the user can download the output files generated by the
// job").
type OutputReq struct {
	Token  string `json:"token"`
	JobID  string `json:"job_id"`
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Limit  int64  `json:"limit"`
}

// KillReq terminates the caller's job — part of letting users "interact
// with their jobs" (§2). Only the submitting user may kill a job.
type KillReq struct {
	User  string `json:"user"`
	Token string `json:"token"`
	JobID string `json:"job_id"`
}

// KillOK confirms termination.
type KillOK struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// OutputOK returns a chunk of output data.
type OutputOK struct {
	Data   []byte `json:"data"`
	EOF    bool   `json:"eof"`
	SHA256 string `json:"sha256,omitempty"`
}

// ASRegisterReq registers a started job with the AppSpector server
// ("once the job starts, the FD registers the running job with the
// AppSpector Server", §2). Like Telemetry it is one-way: no reply.
type ASRegisterReq struct {
	JobID  string `json:"job_id"`
	Owner  string `json:"owner"`
	Server string `json:"server"`
	App    string `json:"app"`
}

// Telemetry is one monitoring sample streamed from the running job to
// AppSpector, and from AppSpector to each watching client. It carries
// the two sections of the paper's Fig 3 display: a generic processor
// utilization/throughput section and an application-specific output
// section.
type Telemetry struct {
	JobID  string  `json:"job_id"`
	Time   float64 `json:"time"`
	PEs    int     `json:"pes"`
	Util   float64 `json:"util"`             // processor utilization [0,1]
	Done   float64 `json:"done"`             // fraction of work completed
	State  string  `json:"state"`            // job lifecycle state
	Output string  `json:"output,omitempty"` // application-specific text
}

// WatchReq subscribes a client to a job's telemetry stream. Multiple
// clients can monitor the same job simultaneously (§2); the server
// buffers history so late watchers see the full record.
type WatchReq struct {
	Token string `json:"token"`
	JobID string `json:"job_id"`
	// FromStart requests buffered history before live samples.
	FromStart bool `json:"from_start"`
}

// WatchOK opens the stream; Telemetry frames follow until TypeWatchEnd.
type WatchOK struct {
	JobID string `json:"job_id"`
}
