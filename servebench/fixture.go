package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safetsa/internal/cluster"
	"safetsa/internal/codeserver"
	"safetsa/internal/obs"
)

// Request headers that carry the traced run's request and parent span
// IDs from the client to the server-side handler span.
const (
	reqHeader  = "X-Servebench-Request"
	spanHeader = "X-Servebench-Span"
)

// daemonConfig is codeserver.Config as safetsad builds it from its flag
// defaults, except that the server keeps its last traces request traces
// (the daemon's default is 64).
func daemonConfig(node string, traces int) codeserver.Config {
	return codeserver.Config{
		StageTimeout: 30 * time.Second,
		MaxUnits:     1024,
		MaxModules:   256,
		Traces:       traces,
		NodeName:     node,
	}
}

// defaultTraces is safetsad's default trace ring size; tracedRing is the
// traced run's, large enough to keep every trace of its traced phase.
const (
	defaultTraces = 64
	tracedRing    = 1 << 16
)

// clusterConfig is cluster.Config as safetsad builds it from its flag
// defaults.
func clusterConfig(self string, peers map[string]string) cluster.Config {
	return cluster.Config{
		Self:           self,
		Peers:          peers,
		HotWindow:      10 * time.Second,
		Replicas:       2,
		GossipInterval: 5 * time.Second,
	}
}

type node struct {
	name   string
	url    string
	srv    *codeserver.Server
	member *cluster.Node // nil on a single node
	hs     *http.Server
	done   chan struct{} // closed when Serve returns
}

// fixture is the system under test: one codeserver, or a fleet of
// cluster nodes, each on its own loopback listener, plus the client
// both load loops share.
type fixture struct {
	nodes  []*node
	client *http.Client
	rec    atomic.Pointer[recorder] // non-nil during the traced phase
}

func startFixture(n, traces int) (*fixture, error) {
	f := &fixture{client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	}}
	// Every listener exists before any node, so each node knows the
	// fleet's URLs. On failure, closing a listener a node already
	// serves is harmless.
	var lns []net.Listener
	closeAll := func() {
		for _, l := range lns {
			l.Close()
		}
	}
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
		peers[nodeName(i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		nd, err := f.newNode(nodeName(i), peers, traces)
		if err != nil {
			f.close()
			closeAll()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		go func(nd *node, ln net.Listener) {
			defer close(nd.done)
			_ = nd.hs.Serve(ln) // returns http.ErrServerClosed after close
		}(nd, ln)
	}
	return f, nil
}

// newNode builds a codeserver, wrapped in a cluster node when there are
// peers.
func (f *fixture) newNode(name string, peers map[string]string, traces int) (*node, error) {
	nd := &node{name: name, url: peers[name], done: make(chan struct{})}
	fleet := len(peers) > 1
	label := "" // a single node's metrics carry no node label
	if fleet {
		label = name
	}
	var err error
	if nd.srv, err = codeserver.New(daemonConfig(label, traces)); err != nil {
		return nil, err
	}
	h, layer := nd.srv.Handler(), "codeserver.handler"
	if fleet {
		if nd.member, err = cluster.NewNode(nd.srv, clusterConfig(name, peers)); err != nil {
			return nil, err
		}
		nd.member.Start()
		h, layer = nd.member.Handler(), "cluster.handler"
	}
	nd.hs = &http.Server{Handler: f.traced(layer, h), ReadHeaderTimeout: 10 * time.Second}
	return nd, nil
}

func nodeName(i int) string { return "n" + strconv.Itoa(i) }

// traced wraps a node's public handler in a server-side span when the
// request carries the traced run's headers.
func (f *fixture) traced(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := f.rec.Load()
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if rec == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := rec.start(req, parent, name)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// close stops every node and waits for its serve loop to return.
func (f *fixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range f.nodes {
		_ = nd.hs.Shutdown(ctx)
		<-nd.done
		if nd.member != nil {
			nd.member.Close()
		}
		_ = nd.srv.Shutdown(ctx)
	}
	f.client.CloseIdleConnections()
}

// stats sums the servers' /stats snapshots over the fleet, plus the
// cluster layer's forwarded-compile count.
func (f *fixture) stats() (codeserver.Stats, uint64) {
	var sum codeserver.Stats
	var forwards uint64
	for _, nd := range f.nodes {
		st := nd.srv.Stats()
		sum.CompileRequests += st.CompileRequests
		sum.CacheHits += st.CacheHits
		sum.Compiles += st.Compiles
		sum.Coalesced += st.Coalesced
		sum.PeerFills += st.PeerFills
		sum.PeerFillRejects += st.PeerFillRejects
		sum.Loads += st.Loads
		sum.LoaderHits += st.LoaderHits
		sum.LoadErrors += st.LoadErrors
		sum.Runs += st.Runs
		sum.PoolHits += st.PoolHits
		sum.PoolBuilds += st.PoolBuilds
		sum.CompileNanos += st.CompileNanos
		sum.DecodeNanos += st.DecodeNanos
		sum.VerifyNanos += st.VerifyNanos
		sum.PrepareNanos += st.PrepareNanos
		sum.CompileBackendNanos += st.CompileBackendNanos
		sum.RunNanos += st.RunNanos
		sum.WireDecodeStreamNanos += st.WireDecodeStreamNanos
		if nd.member != nil {
			for _, row := range nd.member.FleetView() {
				if row.Node == nd.name {
					forwards += row.Forwards
				}
			}
		}
	}
	return sum, forwards
}

// owner is the index of the fleet node the ring assigns the unit with
// the given hash to.
func (f *fixture) owner(hash string) int {
	name := f.nodes[0].member.Ring().Owner(hash)
	for i, nd := range f.nodes {
		if nd.name == name {
			return i
		}
	}
	return -1
}

// traces returns the request traces every node kept that started within
// [from, to).
func (f *fixture) traces(ctx context.Context, from, to time.Time) ([]obs.TraceSnapshot, error) {
	var out []obs.TraceSnapshot
	for _, nd := range f.nodes {
		var resp struct {
			Traces []obs.TraceSnapshot `json:"traces"`
		}
		if err := f.do(ctx, http.MethodGet, nd.url+"/debug/traces", nil, hop{}, &resp); err != nil {
			return nil, err
		}
		if len(resp.Traces) >= tracedRing {
			return nil, fmt.Errorf("node %s: trace ring full; traces of the traced phase were dropped", nd.name)
		}
		for _, tr := range resp.Traces {
			if t := time.Unix(0, tr.StartUnixNanos); !t.Before(from) && t.Before(to) {
				out = append(out, tr)
			}
		}
	}
	return out, nil
}

// hop carries the traced run's IDs for one HTTP exchange (zero when
// untraced).
type hop struct {
	req, span int64
}

func (f *fixture) compile(ctx context.Context, nd int, files map[string]string, moduleOpt bool, h hop) (codeserver.CompileResponse, error) {
	body, err := json.Marshal(codeserver.CompileRequest{Files: files, Optimize: true, ModuleOpt: moduleOpt})
	if err != nil {
		return codeserver.CompileResponse{}, err
	}
	var resp codeserver.CompileResponse
	err = f.do(ctx, http.MethodPost, f.nodes[nd].url+"/compile", body, h, &resp)
	return resp, err
}

func (f *fixture) run(ctx context.Context, nd int, hash string, h hop) (codeserver.RunResult, error) {
	body, err := json.Marshal(codeserver.RunRequest{MaxSteps: runMaxSteps, MaxAllocs: runMaxAllocs})
	if err != nil {
		return codeserver.RunResult{}, err
	}
	var resp codeserver.RunResult
	err = f.do(ctx, http.MethodPost, f.nodes[nd].url+"/run/"+hash, body, h, &resp)
	return resp, err
}

func (f *fixture) stream(ctx context.Context, nd int, data []byte, h hop) (codeserver.RunStreamResult, error) {
	var resp codeserver.RunStreamResult
	err := f.do(ctx, http.MethodPost, f.nodes[nd].url+"/run-stream", data, h, &resp)
	return resp, err
}

func (f *fixture) unitBytes(ctx context.Context, nd int, hash string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.nodes[nd].url+"/unit/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /unit/%s: %s: %s", hash, resp.Status, data)
	}
	return data, nil
}

// do performs one exchange and decodes a 200 response into out; any
// other status is an error carrying the body.
func (f *fixture) do(ctx context.Context, method, url string, body []byte, h hop, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if h.req != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(h.req, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(h.span, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return nil
}

// errs collects the first few distinct failures of a phase for the
// report.
type errs struct {
	mu   sync.Mutex
	list []string
}

func (e *errs) add(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.list) < 5 {
		e.list = append(e.list, err.Error())
	}
}

func (e *errs) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.list) == 0 {
		return nil
	}
	return errors.New(fmt.Sprint(e.list))
}
