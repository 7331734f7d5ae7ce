// Cluster mode: the glue between the HTTP serving flow and the
// internal/cluster primitives. A clustered syncd routes every cacheable
// request on a consistent-hash ring over content-addressed keys —
// kernel-affinity keys where the endpoint has one — serving locally when
// it owns the key and forwarding (with a tail-latency hedge to the next
// ring successor) when a peer does. A peer-computed 200 fills the local
// result cache on the way through, and /v1/cluster/fill accepts pushed
// entries so a draining node can hand its cache to the survivors.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// ClusterConfig joins a server to a static peer group.
type ClusterConfig struct {
	// Self is this node's own base URL as it appears to peers
	// (e.g. "http://127.0.0.1:8080"). Required.
	Self string
	// Peers are the other members' base URLs. Self is added to the ring
	// automatically; listing it again is harmless.
	Peers []string
	// Replicas is the ring's virtual-node count per member.
	// <= 0 takes cluster.DefaultReplicas.
	Replicas int
	// HedgePolicy controls the forwarding hedge. The zero value disables
	// hedging; set Adaptive for the latency-percentile-derived delay.
	HedgePolicy cluster.HedgePolicy
	// HealthInterval is the peer probe period. <= 0 takes 1s.
	HealthInterval time.Duration
	// Client, when set, issues all peer traffic (forwards, probes,
	// fills). Default: a client with a 2-minute timeout.
	Client *http.Client
}

// clusterState is a Server's runtime view of its peer group.
type clusterState struct {
	self    string
	ring    *cluster.Ring
	health  *cluster.Health
	fwd     *cluster.Forwarder
	client  *http.Client
	started bool
}

func newClusterState(cfg ClusterConfig) (*clusterState, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("service: cluster config needs Self")
	}
	ring, err := cluster.NewRing(append([]string{cfg.Self}, cfg.Peers...), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	cs := &clusterState{
		self:   cfg.Self,
		ring:   ring,
		health: cluster.NewHealth(ring.Nodes(), cfg.Self, cfg.HealthInterval, client),
		fwd:    cluster.NewForwarder(client, cfg.HedgePolicy),
		client: client,
	}
	if len(ring.Nodes()) > 1 {
		cs.health.Start()
		cs.started = true
	}
	return cs, nil
}

func (c *clusterState) stop() {
	if c.started {
		c.health.Stop()
		c.started = false
	}
}

// targets returns the forward targets for routeKey: nil when this node
// should serve locally (it owns the key, or no peer is alive), otherwise
// up to two alive peers in ring order — the owner first, then the hedge
// target (the node that would own the key if the owner left).
func (c *clusterState) targets(routeKey string) []string {
	if c.ring.Owner(routeKey) == c.self {
		return nil
	}
	succ := c.ring.Successors(routeKey, len(c.ring.Nodes()))
	out := make([]string, 0, 2)
	for _, n := range succ {
		if n == c.self || !c.health.Alive(n) {
			continue
		}
		out = append(out, n)
		if len(out) == 2 {
			break
		}
	}
	return out
}

// serveForwarded relays the request to targets and serves the winning
// response, filling the local cache from a peer-computed 200. All
// targets failing at the transport layer answers 502 peer_unreachable.
func (s *Server) serveForwarded(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint, key string, start time.Time, span *obs.Span, fwd *forwardSpec, targets []string) {
	header := http.Header{}
	if id := requestIDFrom(r.Context()); id != "" {
		header.Set("X-Request-ID", id)
	}
	fres, err := s.cluster.fwd.Do(ctx, fwd.method, fwd.path, fwd.body, header, targets)
	if err != nil {
		s.metrics.forwardErrors.Add(1)
		span.Annotate(obs.String("cluster", "unreachable"))
		s.finish(w, r, endpoint, start, span, response{},
			&httpError{status: http.StatusBadGateway, msg: fmt.Sprintf("cluster: %v", err), reason: ReasonPeerUnreachable}, "")
		return
	}
	s.metrics.forward(fres.Peer)
	s.metrics.forwardHist.Observe(float64(fres.Latency.Nanoseconds())/1e6, span.TraceID())
	if fres.Hedged {
		s.metrics.hedges.Add(1)
		span.Annotate(obs.String("hedged", "true"))
	}
	if fres.HedgeWon {
		s.metrics.hedgeWins.Add(1)
		span.Annotate(obs.String("hedge_won", "true"))
	}
	res := response{status: fres.Status, contentType: fres.ContentType, body: fres.Body}
	if fres.Status == http.StatusOK {
		// Peer cache-fill: the owner's result becomes a local entry, so
		// the next request for this key is a local hit and each distinct
		// computation happens once cluster-wide.
		s.cache.Put(key, res)
		s.metrics.cacheFill.Add(1)
	}
	w.Header().Set(cluster.ServedByHeader, fres.Peer)
	span.Annotate(obs.String("cluster", "forwarded"), obs.String("served_by", fres.Peer))
	s.finish(w, r, endpoint, start, span, res, nil, "remote")
}

// fillRequest is the body of POST /v1/cluster/fill: one result-cache
// entry pushed by a peer (drain migration, or any future warm-handoff
// path). Body is base64 in the JSON encoding, so SVG and JSON results
// travel identically.
type fillRequest struct {
	Key         string `json:"key"`
	ContentType string `json:"content_type"`
	Body        []byte `json:"body"`
}

// handleClusterFill accepts a pushed cache entry. Only 200 results are
// ever pushed, so the entry is stored as a success response verbatim.
func (s *Server) handleClusterFill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use POST", ReasonMethodNotAllowed)
		return
	}
	// The fill span parents under the pushing node's drain span (via the
	// remote parent ServeHTTP extracted), stitching drains into traces.
	_, span := obs.Start(r.Context(), "serve.fill",
		obs.String("request_id", requestIDFrom(r.Context())))
	defer span.End()
	var req fillRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding fill: %v", err), ReasonBadRequest)
		return
	}
	if req.Key == "" || req.ContentType == "" || len(req.Body) == 0 {
		writeError(w, http.StatusBadRequest, "fill needs key, content_type, and body", ReasonBadRequest)
		return
	}
	s.cache.Put(req.Key, response{status: http.StatusOK, contentType: req.ContentType, body: req.Body})
	s.metrics.cacheFill.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// clusterInfo is the body of GET /v1/cluster/info.
type clusterInfo struct {
	Self         string   `json:"self"`
	Nodes        []string `json:"nodes"`
	Down         []string `json:"down"`
	Replicas     int      `json:"replicas"`
	HedgeEnabled bool     `json:"hedge_enabled"`
	HedgeDelayMS float64  `json:"hedge_delay_ms,omitempty"`
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use GET", ReasonMethodNotAllowed)
		return
	}
	info := clusterInfo{
		Self:     s.cluster.self,
		Nodes:    s.cluster.ring.Nodes(),
		Down:     s.cluster.health.Down(),
		Replicas: s.cluster.ring.Replicas(),
	}
	if d, ok := s.cluster.fwd.HedgeDelay(); ok {
		info.HedgeEnabled = true
		info.HedgeDelayMS = float64(d.Nanoseconds()) / 1e6
	}
	writeJSON(w, http.StatusOK, info)
}

// DrainToPeers pushes this node's successful result-cache entries to
// their ring owners via /v1/cluster/fill, so a graceful shutdown hands
// its warm cache to the survivors instead of discarding it. Best-effort:
// a peer that refuses an entry costs nothing but that entry. Returns how
// many entries were accepted.
func (s *Server) DrainToPeers(ctx context.Context) int {
	if s.cluster == nil {
		return 0
	}
	// The drain is one traced operation: fills carry its span context and
	// a drain request ID, so receiving nodes' fill spans parent under it
	// in a merged trace and their logs stay greppable.
	ctx = obs.WithTracer(ctx, s.tracer)
	drainID := "drain-" + strconv.FormatInt(s.nextReq.Add(1), 10)
	ctx, span := obs.Start(ctx, "cluster.drain", obs.String("request_id", drainID))
	defer span.End()
	migrated := 0
	for _, e := range s.cache.Entries() {
		if e.Val.status != http.StatusOK {
			continue
		}
		owner := s.cluster.ring.Owner(e.Key)
		if owner == s.cluster.self || !s.cluster.health.Alive(owner) {
			continue
		}
		body, err := json.Marshal(fillRequest{Key: e.Key, ContentType: e.Val.contentType, Body: e.Val.body})
		if err != nil {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/cluster/fill", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", drainID)
		if sc := obs.SpanContextOf(ctx); sc.Valid() {
			req.Header.Set(obs.TraceHeader, sc.String())
		}
		resp, err := s.cluster.client.Do(req)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			migrated++
		}
		if ctx.Err() != nil {
			break
		}
	}
	span.Annotate(obs.Int("migrated", int64(migrated)))
	return migrated
}
