// Package admin exposes a peer process's observability surface over HTTP:
// Prometheus-format metrics, a health summary, recent/slow transaction
// traces, and the standard pprof profiling handlers. The listener is opt-in
// (the hyperprov-net -admin flag) and binds loopback by default — it serves
// operational data, not the blockchain protocol, and has no authentication.
package admin

import (
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"time"

	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Health is the /healthz payload: the liveness facts an operator checks
// first when a peer looks wedged.
type Health struct {
	// Peer names the serving peer (its host's name).
	Peer string `json:"peer"`
	// GossipPeers is the gossip membership size, 0 when gossip is off.
	GossipPeers int `json:"gossipPeers"`
	// TransportLastError is the most recent transport-client failure reason,
	// empty while connections are healthy.
	TransportLastError string `json:"transportLastError,omitempty"`
	// Channels breaks liveness down per served channel, one entry each.
	Channels []ChannelHealth `json:"channels"`
}

// ChannelHealth is one channel's slice of the /healthz payload.
type ChannelHealth struct {
	// Channel is the channel ID.
	Channel string `json:"channel"`
	// Height is the channel's committed (persisted-watermark) block height.
	Height uint64 `json:"height"`
	// LastCommitAgeMs is how long ago this channel's last block committed,
	// -1 before the first commit.
	LastCommitAgeMs int64 `json:"lastCommitAgeMs"`
}

// Config wires the admin server to a process's observability state.
type Config struct {
	// Network is the process's network-level registry (gossip, transport,
	// gateway); /metrics serves it with the net_ prefix. Nil serves none.
	Network *metrics.Registry
	// Channels maps a channel ID to that channel's peer registry; /metrics
	// serves each with a channel="<id>" label on every sample, so one scrape
	// covers every channel without metric-name collisions.
	Channels map[string]*metrics.Registry
	// Tracer feeds /tracez. Nil serves empty trace lists.
	Tracer *trace.Recorder
	// HealthFunc produces the current /healthz payload on each request.
	// Nil serves an empty Health.
	HealthFunc func() Health
}

// Server is a running admin HTTP listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// New starts an admin server on addr ("127.0.0.1:0" for an ephemeral port).
func New(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if cfg.Network != nil {
			cfg.Network.WritePrometheus(w, "net_", nil)
		}
		for _, ch := range slices.Sorted(maps.Keys(cfg.Channels)) { // a stable scrape order
			cfg.Channels[ch].WritePrometheus(w, "", map[string]string{"channel": ch})
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		var h Health
		if cfg.HealthFunc != nil {
			h = cfg.HealthFunc()
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		n := 50
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
				n = parsed
			}
		}
		writeJSON(w, struct {
			Recent []trace.Trace `json:"recent"`
			Slow   []trace.Trace `json:"slow"`
		}{
			Recent: cfg.Tracer.Recent(n),
			Slow:   cfg.Tracer.Slow(n),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and open connections.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
