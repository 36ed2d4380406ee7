package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// node is one in-process udcd: server.New over a disk-backed store in its
// own directory, served on a loopback listener with cmd/udcd's defaults.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string // the real loopback base URL the benchmark's clients use
	done chan struct{}
}

// cluster is the set of daemons a workload drives plus the client that
// reaches them.
type cluster struct {
	nodes  []*node
	client *http.Client
}

// fleetPeerURL is peer i's fixed fleet identity.  The claim client's dialer
// maps it to the real listener, so the rendezvous shard split is the same in
// every run whatever ports the kernel hands out.
func fleetPeerURL(i int) string { return fmt.Sprintf("http://peer-%d", i) }

// bootCluster starts n daemons under dir (one store directory each).  n > 1
// forms a fleet with every setting at its default.  claims, when non-nil,
// wraps the production claim transport to time every claim RPC.
func bootCluster(dir string, n, conns int, claims *claimRecorder) (*cluster, error) {
	c := &cluster{client: newClient(conns)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns[:i])
			return nil, err
		}
		lns[i] = ln
	}
	var peers []string
	addrs := make(map[string]string, n)
	for i := range lns {
		peers = append(peers, fleetPeerURL(i))
		addrs[fmt.Sprintf("peer-%d:80", i)] = lns[i].Addr().String()
	}
	var transport fleet.Transport
	if n > 1 {
		dialer := &net.Dialer{Timeout: 5 * time.Second}
		hc := &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if real, ok := addrs[addr]; ok {
					addr = real
				}
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: conns,
		}}
		transport = server.NewHTTPClaimTransport(hc)
		if claims != nil {
			claims.inner = transport
			transport = claims
		}
	}
	for i, ln := range lns {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("node-%d", i)), store.Options{})
		if err != nil {
			closeListeners(lns[i:])
			c.close()
			return nil, err
		}
		cfg := server.Config{
			Store:       st,
			SlowRequest: 30 * time.Second, // udcd's -slow-log default
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
		if n > 1 {
			cfg.Fleet = &fleet.Config{Self: peers[i], Peers: append([]string(nil), peers...)}
			cfg.FleetTransport = transport
		}
		srv, err := server.New(cfg)
		if err != nil {
			closeListeners(lns[i:])
			c.close()
			return nil, err
		}
		nd := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
		go func() {
			defer close(nd.done)
			nd.hs.Serve(ln)
		}()
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		if err := c.getJSON(nd.url+"/readyz", new(server.HealthResponse)); err != nil {
			c.close()
			return nil, fmt.Errorf("readyz: %w", err)
		}
	}
	return c, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// close shuts every daemon down and waits for its serve loop to return.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		nd.hs.Shutdown(ctx)
		cancel()
		<-nd.done
		nd.srv.Close()
	}
	c.client.CloseIdleConnections()
}

// newClient returns the benchmark's HTTP client: at most conns connections
// per daemon, no compression (bodies are measured as served).
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (c *cluster) getJSON(url string, v any) error {
	resp, err := c.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// counters is one snapshot of every daemon's /v1/stats and /v1/fleet,
// summed across the cluster.
type counters struct {
	sched server.SchedulerStats
	store store.Stats
	fleet fleetTotals
}

type fleetTotals struct {
	retries, hedges, fallbackSeeds uint64
}

func (c *cluster) snapshot() (counters, error) {
	var out counters
	for _, nd := range c.nodes {
		var st server.StatsResponse
		if err := c.getJSON(nd.url+"/v1/stats", &st); err != nil {
			return out, err
		}
		addSched(&out.sched, st.Scheduler)
		addStore(&out.store, st.Store)
		var fl server.FleetResponse
		if err := c.getJSON(nd.url+"/v1/fleet", &fl); err != nil {
			return out, err
		}
		for _, p := range fl.Peers {
			out.fleet.retries += p.Retries
			out.fleet.hedges += p.Hedges
			out.fleet.fallbackSeeds += p.FallbackSeeds
		}
	}
	return out, nil
}

func addSched(dst *server.SchedulerStats, s server.SchedulerStats) {
	dst.SeedsRequested += s.SeedsRequested
	dst.SeedsCached += s.SeedsCached
	dst.SeedsComputed += s.SeedsComputed
	dst.SeedsCoalesced += s.SeedsCoalesced
	dst.SeedsRemote += s.SeedsRemote
	dst.Errors += s.Errors
	dst.Shed += s.Shed
	dst.Batches += s.Batches
	dst.BatchedTasks += s.BatchedTasks
	dst.IndexedRunsReused += s.IndexedRunsReused
}

func addStore(dst *store.Stats, s store.Stats) {
	dst.MemHits += s.MemHits
	dst.DiskHits += s.DiskHits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.BytesWritten += s.BytesWritten
	dst.BytesRead += s.BytesRead
}

// reconcile checks the scheduler's seed accounting on every daemon: each
// requested seed was served from the corpus, computed, joined or claimed
// remotely — exactly one of them.
func (c *cluster) reconcile() error {
	for i, nd := range c.nodes {
		s := nd.srv.SchedulerStats()
		if got := s.SeedsCached + s.SeedsComputed + s.SeedsCoalesced + s.SeedsRemote; got != s.SeedsRequested {
			return fmt.Errorf("node %d: seeds cached %d + computed %d + coalesced %d + remote %d = %d, requested %d",
				i, s.SeedsCached, s.SeedsComputed, s.SeedsCoalesced, s.SeedsRemote, got, s.SeedsRequested)
		}
		if s.Errors != 0 {
			return fmt.Errorf("node %d: scheduler counted %d errors", i, s.Errors)
		}
	}
	return nil
}

// scrapeGauges reads one /metrics page per daemon and returns the summed
// scheduler queue depth and the busy-worker gauge (process-wide, so read
// from the first daemon only).
func (c *cluster) scrapeGauges() (queue, busy float64, err error) {
	for i, nd := range c.nodes {
		resp, err := c.client.Get(nd.url + "/metrics")
		if err != nil {
			return 0, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		samples, err := obs.ParseText(body)
		if err != nil {
			return 0, 0, err
		}
		q, _ := obs.Value(samples, "udc_scheduler_queue_depth")
		queue += q
		if i == 0 {
			busy, _ = obs.Value(samples, "udc_fleet_busy_workers")
		}
	}
	return queue, busy, nil
}

// tempDir makes a fresh directory under root for one cluster's stores.
func tempDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}
