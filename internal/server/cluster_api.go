package server

// The serving layer's cluster face. When Config.Cluster is set the daemon is
// one member of a consistent-hash cluster (internal/cluster): its miss path
// read-throughs from the key's owner peers before paying for a recompute
// (X-Nanocache: peer), freshly computed results replicate write-behind to
// the owners, and a pull-based anti-entropy sweep converges the durable
// stores after a node rejoins. This file holds the server side of the peer
// protocol — the object and manifest endpoints peers dial — plus the
// operator-facing /v1/cluster/status view that `nanocachectl cluster
// status` renders.
//
// Peer endpoints are deliberately compute-free: they answer only from the
// local cache tiers (LRU + durable store), so a fetch storm between peers
// can never recurse into the simulator — the compute always happens exactly
// once, on the node a client asked first, and everyone else copies verified
// bytes.

import (
	"io"
	"net/http"

	"nanocache/internal/cluster"
	"nanocache/internal/verify"
)

// clusterBackend adapts the server's two cache tiers to cluster.Backend.
type clusterBackend struct{ s *Server }

// Has reports local residency in either tier without promoting the entry.
func (b clusterBackend) Has(key string) bool {
	if b.s.cache.Contains(key) {
		return true
	}
	return b.s.store != nil && b.s.store.Has(key)
}

// Store installs a verified remote payload in both tiers.
func (b clusterBackend) Store(key string, payload []byte) { b.s.publish(key, payload) }

// Keys lists the locally resident keys: the durable store's index plus any
// LRU entries that never reached disk (memory-only servers, failed writes).
func (b clusterBackend) Keys() []string {
	keys := b.s.cache.Keys()
	if b.s.store == nil {
		return keys
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for _, k := range b.s.store.Keys() {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	return keys
}

// Cluster exposes the cluster member (nil on a single-node daemon).
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// peek consults both cache tiers without touching the serving hit counters:
// peer traffic must not masquerade as client cache hits in /metrics.
func (s *Server) peek(key string) ([]byte, bool) {
	if payload, ok := s.cache.Get(key); ok {
		return payload, true
	}
	if s.store != nil {
		if payload, ok := s.store.Get(key); ok {
			s.cache.Put(key, payload)
			return payload, true
		}
	}
	return nil, false
}

// handlePeerObjectGet serves one locally resident object to a peer, wrapped
// in a checksummed wire envelope. Absent keys are a plain 404 — the peer
// falls through to its next candidate or computes.
func (s *Server) handlePeerObjectGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSONError(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	payload, ok := s.peek(key)
	if !ok {
		s.m.peerServedMisses.Add(1)
		writeJSONError(w, http.StatusNotFound, "object not resident")
		return
	}
	s.m.peerServedHits.Add(1)
	env := cluster.PeerEnvelope{Node: s.cluster.Self(), Key: key, Payload: payload}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(env.Encode())
}

// handlePeerObjectPut accepts a write-behind replication push: a wire
// envelope whose checksum and key are verified before the payload touches
// either cache tier. Damaged pushes are refused with 400 — the sender counts
// the error and anti-entropy retries later.
func (s *Server) handlePeerObjectPut(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cluster.MaxEnvelopeBytes))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "reading push body: "+err.Error())
		return
	}
	env, err := cluster.DecodePeerEnvelope(b)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if env.Key == "" {
		writeJSONError(w, http.StatusBadRequest, "push with empty key")
		return
	}
	// The store write joins the drain WaitGroup, so Close returns only after
	// every accepted push is on disk; a push arriving once Close has begun is
	// refused, and the owners' next anti-entropy sweep repairs the gap.
	if !s.startWork() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.m.peerPushesAccepted.Add(1)
	s.publish(env.Key, env.Payload)
	s.wg.Done()
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerManifest serves the anti-entropy key listing.
func (s *Server) handlePeerManifest(w http.ResponseWriter, _ *http.Request) {
	b, err := verify.MarshalGolden(s.cluster.ManifestLocal())
	if err != nil {
		s.m.errors.Add(1)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleClusterStatus serves the operator view: ring ownership, per-peer
// health and traffic, replication lag, anti-entropy progress.
func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.cluster.Status()
	// Decorate the member rows with distributed-sweep work: the ring knows
	// ownership and health, but only the serving layer counts points.
	if s.dist != nil {
		dm := s.dist.Metrics()
		for i := range st.Peers {
			if st.Peers[i].Self {
				st.Peers[i].Points = dm.CompletedLocal + s.m.distPointsComputed.Load()
			} else {
				st.Peers[i].Points = dm.PerPeer[st.Peers[i].ID]
			}
		}
	} else {
		for i := range st.Peers {
			if st.Peers[i].Self {
				st.Peers[i].Points = s.m.distPointsComputed.Load()
			}
		}
	}
	b, err := verify.MarshalGolden(st)
	if err != nil {
		s.m.errors.Add(1)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writePayload(w, b, "static")
}
