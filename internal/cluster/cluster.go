package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Peer endpoint paths, served by internal/server on every clustered daemon
// and dialed by this package's client side. The object endpoint carries
// PeerEnvelope bytes (GET = read-through fetch, PUT = replication push); the
// manifest endpoint serves the JSON key listing anti-entropy pulls diff
// against.
const (
	PathObject   = "/v1/peer/object"
	PathManifest = "/v1/peer/manifest"
)

// Peer names one cluster member: a stable identity (what the ring hashes)
// plus the HTTP address it serves on. Identity and address are separate so a
// node can move hosts without reshuffling the key space.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Backend is the local object tier the cluster reads and writes: the serving
// layer's LRU + durable store. Implementations must be safe for concurrent
// use.
type Backend interface {
	// Has reports whether key is locally resident (either tier), without
	// promoting or copying it.
	Has(key string) bool
	// Store installs a verified remote payload locally (both tiers).
	Store(key string, payload []byte)
	// Keys lists the locally resident keys (the manifest anti-entropy serves
	// to peers).
	Keys() []string
}

// Config parameterizes a cluster member.
type Config struct {
	// Self is this node's ID. It must appear in Peers.
	Self string
	// Peers is the full member list, self included.
	Peers []Peer
	// Replicas is how many owners each key has (read-through candidates and
	// write-behind replication targets). Clamped to the member count;
	// 0 means 2.
	Replicas int
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// OptionsDigest is the lab-options fingerprint results are keyed under.
	// Anti-entropy refuses to pull from a peer serving a different digest —
	// mixed-options clusters would trade byte-identical results for garbage.
	OptionsDigest string

	// HedgeAfter starts a second owner fetch when the first hasn't answered
	// within this duration (0 = 50ms; negative disables hedging).
	HedgeAfter time.Duration
	// FetchTimeout bounds each individual peer request (0 = 2s).
	FetchTimeout time.Duration
	// AntiEntropy is the pull sweep interval (0 disables the background
	// loop; SweepNow still works, which is what the tests drive).
	AntiEntropy time.Duration
	// ReplicationQueue bounds the write-behind queue (0 = 256). A full
	// queue drops the push (counted) rather than blocking the serving path;
	// anti-entropy repairs whatever drops lose.
	ReplicationQueue int
	// FailThreshold is how many consecutive errors mark a peer down
	// (0 = 3). A down peer is deprioritized, not abandoned: fetches still
	// try it last, and any success revives it.
	FailThreshold int
	// Transport overrides the HTTP transport (fault injection in tests;
	// nil = http.DefaultTransport).
	Transport http.RoundTripper
}

// Metrics is a snapshot of the cluster counters, rendered under
// nanocached_cluster_* in /metrics.
type Metrics struct {
	PeerHits    uint64 // read-through fetches answered by a peer
	PeerMisses  uint64 // fetches no owner could answer (falls through to compute)
	PeerErrors  uint64 // individual peer requests that failed (not 404s)
	Hedges      uint64 // second-owner requests launched by the hedge timer
	ReplPushed  uint64 // successful write-behind object pushes
	ReplErrors  uint64 // failed pushes
	ReplDropped uint64 // pushes dropped on a full queue
	ReplQueued  int64  // pushes currently queued or in flight
	AESweeps    uint64 // completed anti-entropy sweeps
	AEPulled    uint64 // objects pulled by anti-entropy
	AEErrors    uint64 // manifest/object pulls that failed
}

// Status is the cluster's operator view, served as /v1/cluster/status and
// rendered by `nanocachectl cluster status`.
type Status struct {
	Self          string       `json:"self"`
	Replicas      int          `json:"replicas"`
	VNodes        int          `json:"vnodes"`
	OptionsDigest string       `json:"options_digest"`
	Replication   ReplStatus   `json:"replication"`
	AntiEntropy   SweepStatus  `json:"anti_entropy"`
	Peers         []PeerStatus `json:"peers"`
}

// ReplStatus summarizes write-behind replication. Queued is the live lag:
// objects computed here that owners have not yet acknowledged.
type ReplStatus struct {
	Queued  int64  `json:"queued"`
	Pushed  uint64 `json:"pushed"`
	Errors  uint64 `json:"errors"`
	Dropped uint64 `json:"dropped"`
}

// SweepStatus summarizes anti-entropy progress.
type SweepStatus struct {
	Sweeps uint64 `json:"sweeps"`
	Pulled uint64 `json:"pulled"`
	Errors uint64 `json:"errors"`
}

// PeerStatus is one member row, self included, sorted by ID.
type PeerStatus struct {
	ID        string  `json:"id"`
	Addr      string  `json:"addr"`
	Self      bool    `json:"self"`
	Healthy   bool    `json:"healthy"`
	Ownership float64 `json:"ownership"`
	Hits      uint64  `json:"hits"`
	Errors    uint64  `json:"errors"`
	// Points counts distributed sweep points: for the self row, points this
	// node computed (its own plus ones served to coordinators); for a peer
	// row, points that peer computed for this node's sweeps. Filled in by
	// the serving layer when the distsweep scheduler is enabled.
	Points    uint64 `json:"points"`
	LastError string `json:"last_error,omitempty"`
}

// Manifest is the anti-entropy key listing a peer serves on PathManifest.
type Manifest struct {
	Node          string   `json:"node"`
	OptionsDigest string   `json:"options_digest"`
	Keys          []string `json:"keys"`
}

// peerState is the mutable per-peer health record.
type peerState struct {
	addr        string
	hits        atomic.Uint64
	errs        atomic.Uint64
	consecFails int    // guarded by Cluster.mu
	lastErr     string // guarded by Cluster.mu
}

// Cluster is one member's view of the peer tier. Create with New, stop with
// Close. Safe for concurrent use.
type Cluster struct {
	cfg   Config
	ring  *Ring
	self  string
	peers map[string]*peerState // every member except self
	hc    *http.Client

	mu sync.Mutex // guards peerState.consecFails/lastErr

	peerHits    atomic.Uint64
	peerMisses  atomic.Uint64
	peerErrors  atomic.Uint64
	hedges      atomic.Uint64
	replPushed  atomic.Uint64
	replErrors  atomic.Uint64
	replDropped atomic.Uint64
	replPending atomic.Int64
	aeSweeps    atomic.Uint64
	aePulled    atomic.Uint64
	aeErrors    atomic.Uint64

	be    Backend
	replq chan replItem
	stop  chan struct{}
	wg    sync.WaitGroup
}

type replItem struct {
	key     string
	payload []byte
}

// New validates the configuration and starts the member's background work
// (replication worker, anti-entropy loop when an interval is set).
func New(cfg Config, be Backend) (*Cluster, error) {
	if be == nil {
		return nil, fmt.Errorf("cluster: nil backend")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self node id")
	}
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 members, have %d", len(cfg.Peers))
	}
	ids := make([]string, 0, len(cfg.Peers))
	addrs := make(map[string]string, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer with empty id or addr: %+v", p)
		}
		if _, dup := addrs[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		ids = append(ids, p.ID)
		addrs[p.ID] = p.Addr
	}
	if _, ok := addrs[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replicas %d < 1", cfg.Replicas)
	}
	if cfg.Replicas > len(ids) {
		cfg.Replicas = len(ids)
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 50 * time.Millisecond
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.FetchTimeout < 0 {
		return nil, fmt.Errorf("cluster: negative fetch timeout %v", cfg.FetchTimeout)
	}
	if cfg.AntiEntropy < 0 {
		return nil, fmt.Errorf("cluster: negative anti-entropy interval %v", cfg.AntiEntropy)
	}
	if cfg.ReplicationQueue == 0 {
		cfg.ReplicationQueue = 256
	}
	if cfg.ReplicationQueue < 1 {
		return nil, fmt.Errorf("cluster: replication queue %d < 1", cfg.ReplicationQueue)
	}
	if cfg.FailThreshold == 0 {
		cfg.FailThreshold = 3
	}
	ring, err := NewRing(ids, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  ring,
		self:  cfg.Self,
		peers: make(map[string]*peerState, len(ids)-1),
		hc:    &http.Client{Transport: cfg.Transport},
		be:    be,
		replq: make(chan replItem, cfg.ReplicationQueue),
		stop:  make(chan struct{}),
	}
	for id, addr := range addrs {
		if id != cfg.Self {
			c.peers[id] = &peerState{addr: addr}
		}
	}
	c.wg.Add(1)
	go c.replWorker()
	if cfg.AntiEntropy > 0 {
		c.wg.Add(1)
		go c.sweepLoop()
	}
	return c, nil
}

// Close stops the background goroutines. Queued replication work is dropped
// (anti-entropy on the owners repairs the difference); in-flight peer
// requests finish on their own timeouts.
func (c *Cluster) Close() {
	close(c.stop)
	c.wg.Wait()
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the hash ring (ownership checks in tests and handlers).
func (c *Cluster) Ring() *Ring { return c.ring }

// Replicas returns the effective replication factor.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// Owns reports whether this node is one of key's owners.
func (c *Cluster) Owns(key string) bool {
	return c.ring.Owns(key, c.self, c.cfg.Replicas)
}

// PrimaryOwner returns key's first ring owner (possibly self). The
// distributed sweep scheduler partitions work by it: one deterministic
// computing node per point, so repeated sweeps reuse the same checkpoints.
func (c *Cluster) PrimaryOwner(key string) string {
	return c.ring.Owners(key, 1)[0]
}

// PeerAddr returns the HTTP address of member id (false for self or an
// unknown id — callers dial peers, never themselves).
func (c *Cluster) PeerAddr(id string) (string, bool) {
	p := c.peers[id]
	if p == nil {
		return "", false
	}
	return p.addr, true
}

// PeerDown reports whether id has crossed the consecutive-failure threshold.
func (c *Cluster) PeerDown(id string) bool { return c.down(id) }

// ReportPeerOK and ReportPeerError feed observations from outside the fetch
// path (the distsweep scheduler's compute calls) into the same per-peer
// health state, so a worker that stops answering compute requests is also
// deprioritized for fetches — and one success anywhere revives it.
func (c *Cluster) ReportPeerOK(id string) { c.markOK(id) }

func (c *Cluster) ReportPeerError(id string, err error) { c.markFail(id, err) }

// ManifestLocal renders this node's anti-entropy manifest.
func (c *Cluster) ManifestLocal() Manifest {
	keys := c.be.Keys()
	sort.Strings(keys)
	return Manifest{Node: c.self, OptionsDigest: c.cfg.OptionsDigest, Keys: keys}
}

// --- health ---------------------------------------------------------------

func (c *Cluster) markOK(id string) {
	if p := c.peers[id]; p != nil {
		c.mu.Lock()
		p.consecFails = 0
		p.lastErr = ""
		c.mu.Unlock()
	}
}

func (c *Cluster) markFail(id string, err error) {
	if p := c.peers[id]; p != nil {
		p.errs.Add(1)
		c.mu.Lock()
		p.consecFails++
		p.lastErr = err.Error()
		c.mu.Unlock()
	}
}

// down reports whether a peer has crossed the consecutive-failure threshold.
func (c *Cluster) down(id string) bool {
	p := c.peers[id]
	if p == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return p.consecFails >= c.cfg.FailThreshold
}

// --- read-through fetch ---------------------------------------------------

// errPeerNotFound distinguishes "peer answered: no such object" (a healthy
// miss) from transport and server errors (which count against the peer).
var errPeerNotFound = errors.New("cluster: object not found on peer")

// fetchCandidates orders key's owners for a read-through attempt: self is
// excluded (the caller already missed locally), healthy owners come first,
// down owners are still tried last — a marked-down peer that recovered
// should serve again without waiting for a sweep to notice.
func (c *Cluster) fetchCandidates(key string) []string {
	owners := c.ring.Owners(key, c.cfg.Replicas)
	var up, dn []string
	for _, id := range owners {
		if id == c.self {
			continue
		}
		if c.down(id) {
			dn = append(dn, id)
		} else {
			up = append(up, id)
		}
	}
	return append(up, dn...)
}

// Fetch read-throughs key from its owner peers: the first candidate is asked
// immediately, a second is hedged in after HedgeAfter, and any failure
// advances to the next candidate. The first verified envelope wins. ok=false
// means no owner could serve the key (the caller computes locally).
func (c *Cluster) Fetch(ctx context.Context, key string) (payload []byte, from string, ok bool) {
	cands := c.fetchCandidates(key)
	if len(cands) == 0 {
		return nil, "", false
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // abandon slower attempts once one wins
	type result struct {
		payload []byte
		from    string
		err     error
	}
	results := make(chan result, len(cands))
	launch := func(id string) {
		go func() {
			p, err := c.fetchFrom(ctx, id, key)
			results <- result{p, id, err}
		}()
	}
	launched, outstanding := 1, 1
	launch(cands[0])
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(cands) > 1 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			c.peerMisses.Add(1)
			return nil, "", false
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				c.hedges.Add(1)
				launch(cands[launched])
				launched++
				outstanding++
			}
		case r := <-results:
			outstanding--
			switch {
			case r.err == nil:
				c.markOK(r.from)
				if p := c.peers[r.from]; p != nil {
					p.hits.Add(1)
				}
				c.peerHits.Add(1)
				return r.payload, r.from, true
			case errors.Is(r.err, errPeerNotFound):
				// The peer is alive, it just doesn't have the object yet.
				c.markOK(r.from)
			default:
				c.peerErrors.Add(1)
				c.markFail(r.from, r.err)
			}
			if outstanding == 0 && launched < len(cands) {
				launch(cands[launched])
				launched++
				outstanding++
			}
		}
	}
	c.peerMisses.Add(1)
	return nil, "", false
}

// fetchFrom issues one object GET against one peer and verifies the result.
func (c *Cluster) fetchFrom(ctx context.Context, id, key string) ([]byte, error) {
	p := c.peers[id]
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", id)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	u := "http://" + p.addr + PathObject + "?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, errPeerNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s object fetch: %s", id, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEnvelope+1))
	if err != nil {
		return nil, err
	}
	env, err := DecodePeerEnvelope(b)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s sent unverifiable object: %w", id, err)
	}
	if env.Key != key {
		return nil, fmt.Errorf("%w: peer %s answered for key %q, asked %q",
			ErrWireCorrupt, id, env.Key, key)
	}
	return env.Payload, nil
}

// --- write-behind replication --------------------------------------------

// Replicate queues a freshly computed payload for push to key's owner peers.
// It never blocks the serving path: a full queue drops the push and counts
// it (anti-entropy repairs the owners later).
func (c *Cluster) Replicate(key string, payload []byte) {
	// Count before the send: the worker may finish the push and decrement
	// before this goroutine runs again.
	c.replPending.Add(1)
	select {
	case c.replq <- replItem{key: key, payload: payload}:
	default:
		c.replPending.Add(-1)
		c.replDropped.Add(1)
	}
}

// FlushReplication blocks until the write-behind queue is empty and idle, or
// ctx expires. Tests use it to make "replication happened" deterministic.
func (c *Cluster) FlushReplication(ctx context.Context) error {
	for {
		if c.replPending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// replWorker drains the write-behind queue, pushing each object to every
// owner peer.
func (c *Cluster) replWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case it := <-c.replq:
			c.pushItem(it)
			c.replPending.Add(-1)
		}
	}
}

// pushItem PUTs one object to each owner of its key (self excluded).
func (c *Cluster) pushItem(it replItem) {
	env := PeerEnvelope{Node: c.self, Key: it.key, Payload: it.payload}.Encode()
	for _, id := range c.ring.Owners(it.key, c.cfg.Replicas) {
		if id == c.self {
			continue
		}
		if err := c.pushTo(id, env); err != nil {
			c.replErrors.Add(1)
			c.markFail(id, err)
		} else {
			c.replPushed.Add(1)
			c.markOK(id)
		}
	}
}

func (c *Cluster) pushTo(id string, env []byte) error {
	p := c.peers[id]
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %q", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		"http://"+p.addr+PathObject, strings.NewReader(string(env)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: peer %s replication push: %s", id, resp.Status)
	}
	return nil
}

// --- anti-entropy ---------------------------------------------------------

// sweepLoop runs SweepNow on the configured interval until Close.
func (c *Cluster) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.AntiEntropy)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.AntiEntropy)
			c.SweepNow(ctx)
			cancel()
		}
	}
}

// SweepNow runs one pull-based anti-entropy round: fetch every peer's
// manifest, and for each listed key that this node owns but lacks locally,
// pull the object (verified) into the local tiers. It returns how many
// objects were pulled. Peers that fail or serve a different options digest
// are skipped (counted), not fatal — convergence only needs each pair of
// live owners to eventually exchange manifests.
func (c *Cluster) SweepNow(ctx context.Context) (pulled int, firstErr error) {
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		select {
		case <-ctx.Done():
			return pulled, ctx.Err()
		default:
		}
		man, err := c.fetchManifest(ctx, id)
		if err != nil {
			c.aeErrors.Add(1)
			c.markFail(id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.markOK(id)
		if man.OptionsDigest != c.cfg.OptionsDigest {
			err := fmt.Errorf("cluster: peer %s serves options digest %.12s…, want %.12s…",
				id, man.OptionsDigest, c.cfg.OptionsDigest)
			c.aeErrors.Add(1)
			c.markFail(id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, key := range man.Keys {
			if !c.Owns(key) || c.be.Has(key) {
				continue
			}
			payload, err := c.fetchFrom(ctx, id, key)
			if err != nil {
				c.aeErrors.Add(1)
				if !errors.Is(err, errPeerNotFound) {
					c.markFail(id, err)
				}
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			c.be.Store(key, payload)
			c.aePulled.Add(1)
			pulled++
		}
	}
	c.aeSweeps.Add(1)
	return pulled, firstErr
}

// fetchManifest pulls one peer's key listing.
func (c *Cluster) fetchManifest(ctx context.Context, id string) (Manifest, error) {
	p := c.peers[id]
	if p == nil {
		return Manifest{}, fmt.Errorf("cluster: unknown peer %q", id)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+PathManifest, nil)
	if err != nil {
		return Manifest{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Manifest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("cluster: peer %s manifest: %s", id, resp.Status)
	}
	var man Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxPeerEnvelope)).Decode(&man); err != nil {
		return Manifest{}, fmt.Errorf("cluster: peer %s manifest: %w", id, err)
	}
	return man, nil
}

// --- observability --------------------------------------------------------

// Metrics snapshots the cluster counters.
func (c *Cluster) Metrics() Metrics {
	return Metrics{
		PeerHits:    c.peerHits.Load(),
		PeerMisses:  c.peerMisses.Load(),
		PeerErrors:  c.peerErrors.Load(),
		Hedges:      c.hedges.Load(),
		ReplPushed:  c.replPushed.Load(),
		ReplErrors:  c.replErrors.Load(),
		ReplDropped: c.replDropped.Load(),
		ReplQueued:  c.replPending.Load(),
		AESweeps:    c.aeSweeps.Load(),
		AEPulled:    c.aePulled.Load(),
		AEErrors:    c.aeErrors.Load(),
	}
}

// Status renders the operator view: every member sorted by ID with health,
// exact ring ownership share, and per-peer traffic counters.
func (c *Cluster) Status() Status {
	m := c.Metrics()
	shares := c.ring.Shares()
	st := Status{
		Self:          c.self,
		Replicas:      c.cfg.Replicas,
		VNodes:        c.ring.VNodes(),
		OptionsDigest: c.cfg.OptionsDigest,
		Replication: ReplStatus{
			Queued:  m.ReplQueued,
			Pushed:  m.ReplPushed,
			Errors:  m.ReplErrors,
			Dropped: m.ReplDropped,
		},
		AntiEntropy: SweepStatus{Sweeps: m.AESweeps, Pulled: m.AEPulled, Errors: m.AEErrors},
	}
	selfAddr := ""
	for _, p := range c.cfg.Peers {
		if p.ID == c.self {
			selfAddr = p.Addr
		}
	}
	st.Peers = append(st.Peers, PeerStatus{
		ID: c.self, Addr: selfAddr, Self: true, Healthy: true,
		Ownership: shares[c.self],
	})
	c.mu.Lock()
	for id, p := range c.peers {
		st.Peers = append(st.Peers, PeerStatus{
			ID:        id,
			Addr:      p.addr,
			Healthy:   p.consecFails < c.cfg.FailThreshold,
			Ownership: shares[id],
			Hits:      p.hits.Load(),
			Errors:    p.errs.Load(),
			LastError: p.lastErr,
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	return st
}
