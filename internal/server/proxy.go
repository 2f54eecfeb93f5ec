package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// Fleet request routing (DESIGN.md §14). With Options.Ring set, every
// analysis request has exactly one owning node — the stable FNV-1a
// partition of its canonical key over the sorted member list — and a
// non-owner relays the request there, so the owner's cache, coalescing
// map and warm memo backbones serve the whole fleet. Three rules keep
// the scheme safe without any cluster state:
//
//   - Hop guard: a request carrying the X-Buscond-Forwarded header is
//     always handled locally, whatever this node's ownership opinion.
//     A misconfigured ring costs one extra hop, never a loop.
//   - Degradation: a proxy attempt that fails at the transport, or
//     that the owner answers with a non-2xx status, falls back to
//     local compute and marks the verdict "degraded" — node loss
//     costs latency and cache locality, not availability.
//   - Edge fill: a successfully relayed /v1/analyze envelope is
//     parsed and its result bytes, normalized to the encoder's output
//     form, stored in the local request store with the decoded inputs,
//     so repeat traffic for a remote key turns into local cache hits
//     and deltas against it resolve locally. A relayed delta's result
//     is stored without inputs (only the owner decoded them): it
//     answers repeats, but is no delta base until a local cache hit
//     supplies them.
//
// Accounting: a successfully proxied request counts only
// server.peer_proxied at the edge — the owner counts it as
// server.requests — so the fleet-wide sum of server.requests equals
// the number of client requests, exactly as on one node. Degraded
// requests count server.peer_errors + server.peer_degraded at the
// edge and then run the ordinary local path (server.requests
// included).

// routeRemotely reports whether the request for key should be relayed
// to a peer: this node is in a fleet, the request was not already
// routed by a peer (hop guard), another node owns the key, and the
// local cache cannot answer it anyway.
func (s *Server) routeRemotely(r *http.Request, key string) bool {
	if s.ring == nil || cluster.Forwarded(r) || s.ring.OwnsLocally(key) {
		return false
	}
	if _, hit := s.store.get(key, nil, nil); hit {
		// A previously relayed (or degraded-computed) result answers
		// locally without another hop; the analyze path will re-find it
		// and count the cache hit.
		return false
	}
	return true
}

// peerDegrade accounts one failed proxy attempt on the way to local
// compute: a transport error or a non-2xx answer from the peer.
func (s *Server) peerDegrade() {
	s.obs.Add(telemetry.CtrServerPeerErrors, 1)
	s.obs.Add(telemetry.CtrServerPeerDegraded, 1)
}

// edgeFill stores a relayed result under key, normalized to the
// encoder's output form like every cached value, so the next duplicate
// of the key is a local cache hit. ts and cfgs, when this node decoded
// them, make the key a local delta base too.
func (s *Server) edgeFill(key string, results json.RawMessage, ts *taskmodel.TaskSet, cfgs []core.Config) {
	if len(results) == 0 {
		return
	}
	if raw, err := normalizeResults(results); err == nil {
		s.store.put(key, raw, ts, cfgs)
		s.obs.Add(telemetry.CtrServerPeerHits, 1)
	}
}

// relay forwards a request body to the owner of routeKey at path: the
// request's canonical key for /v1/analyze, the base key for
// /v1/analyze/delta, whose owner holds the base's inputs and the warm
// memo backbones the delta reuses. It reports true when the peer's
// response was written to the client; false tells the caller to degrade
// to local compute. The edge fill goes under the key the envelope
// names; ts and cfgs, which only the analyze path has, belong to
// routeKey and are stored only when the envelope's key equals it.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, ri *reqInfo, routeKey, path string, body []byte, ts *taskmodel.TaskSet, cfgs []core.Config) bool {
	st := ri.stageTimer()
	tp := st.Now()
	status, respBody, err := s.ring.Proxy(r.Context(), routeKey, path, body)
	st.AddSince(telemetry.StageProxy, tp)
	if err != nil || status < 200 || status > 299 {
		s.peerDegrade()
		return false
	}
	s.obs.Add(telemetry.CtrServerPeerProxied, 1)
	var env wireAnalyzeResponse
	if json.Unmarshal(respBody, &env) == nil && env.Key != "" && (ts == nil || env.Key == routeKey) {
		s.edgeFill(env.Key, env.Results, ts, cfgs)
	}
	ri.setVerdict("proxied")
	writeBody(w, status, respBody)
	return true
}
