// Package codeserver is the concurrent mobile-code distribution service:
// a content-addressed store of compiled SafeTSA distribution units (with
// singleflight fills and an optional on-disk tier), a bounded parallel
// producer pool, a consumer-side loader cache that decodes and verifies
// each unit once, and an HTTP API over all three. It turns the one-shot
// safetsac/safetsarun pipeline into a service that amortizes producer
// work across clients and serves verified, immutable modules to
// concurrent interpreter sessions.
package codeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/obs"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// Config tunes the server. The zero value is usable: in-memory only,
// GOMAXPROCS compile workers, no step budget.
type Config struct {
	// CacheDir enables the on-disk unit store when non-empty.
	CacheDir string
	// Workers bounds concurrent producer pipelines (<=0: GOMAXPROCS).
	Workers int
	// StageTimeout bounds each producer stage (<=0: no stage deadline).
	StageTimeout time.Duration
	// MaxUnits bounds the in-memory encoded-unit cache (<=0: 1024).
	MaxUnits int
	// MaxModules bounds the decoded-module loader cache (<=0: 256).
	MaxModules int
	// MaxSteps caps the per-run step budget; requests may ask for less
	// but never more (0: unlimited).
	MaxSteps int64
	// MaxAllocs caps the per-run allocation budget (rt.Env.MaxAlloc)
	// the same way: requests may ask for less but never more
	// (0: unlimited). This is the server-side backstop that makes the
	// in-library alloc budgets reachable from POST /run.
	MaxAllocs int64
	// RunTimeout is the wall-clock deadline of one run session; on
	// expiry the guest is interrupted (it dies with rt.ErrInterrupted,
	// recorded as a "deadline" kill) while its HTTP response still
	// completes with the output produced so far (0: no deadline).
	RunTimeout time.Duration
	// TenantMaxInFlight bounds concurrent run sessions per tenant; a
	// run beyond the bound is rejected with a TenantBusyError (HTTP 429
	// + Retry-After) before any work happens (0: unlimited).
	TenantMaxInFlight int
	// PoolUnits bounds the warm-session pool: per-unit snapshots of
	// post-static-init state cloned into later sessions so static init
	// runs once per unit, not once per request (0: default 256;
	// negative: pool disabled, every session runs init fresh).
	PoolUnits int
	// MaxSourceBytes bounds the /compile request body (<=0: 8 MiB).
	MaxSourceBytes int64
	// Traces bounds the ring buffer of recent request traces served by
	// /debug/traces (<=0: 64).
	Traces int
	// ModuleOpt upgrades every optimizing compile to the interprocedural
	// tier (CHA/RTA devirtualization, inlining, flow-based check
	// elimination): requests asking for Optimize get ModuleOpt too. The
	// tier participates in the content hash, so units built either way
	// remain distinct.
	ModuleOpt bool
	// NodeName identifies this server inside a fleet: it labels every
	// Prometheus series and the stats snapshot. Empty for single-node
	// deployments (no label, historical wire shape).
	NodeName string
	// WireVersion selects the wire format units are encoded in: 0 or 1
	// for the fixed-code v1 format, 2 for the adaptive range-coded v2
	// format. The version participates in the content hash, so a fleet
	// upgrading to v2 never serves mislabeled bytes.
	WireVersion int
}

// PeerFiller fetches the encoded bytes of a unit this node lacks from
// the fleet peer that owns it. Implementations (internal/cluster) speak
// the peer HTTP API; the server treats whatever comes back as untrusted
// input and re-verifies it locally before caching. optimized is
// peer-reported metadata (it only affects bookkeeping, never safety).
type PeerFiller interface {
	FetchUnit(ctx context.Context, k Key) (data []byte, optimized bool, err error)
}

// Server ties the store, pool, and loader cache together and exposes
// both a programmatic API (used by tests and embedding daemons) and an
// http.Handler.
type Server struct {
	cfg    Config
	m      *Metrics
	tracer *obs.Tracer
	store  *Store
	pool   *Pool
	loader *LoaderCache

	// sessions is the warm-session pool (nil when Config.PoolUnits < 0):
	// post-static-init snapshots cloned into later run sessions.
	sessions *sessionPool

	// peerFiller, when set (SetPeerFiller, before serving), turns a
	// store miss on the run/unit paths into a peer fill instead of a
	// hard ErrUnitNotFound.
	peerFiller PeerFiller

	// baseCtx is cancelled by Shutdown; every run session derives its
	// interrupt from both its request context and this one, so a
	// draining server can stop in-flight guests without killing the
	// HTTP exchange they ride on.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 8 << 20
	}
	switch cfg.WireVersion {
	case 0, 1, 2:
	default:
		return nil, fmt.Errorf("codeserver: unknown wire version %d (want 1 or 2)", cfg.WireVersion)
	}
	m := &Metrics{node: cfg.NodeName}
	store, err := NewStore(cfg.CacheDir, cfg.MaxUnits, m)
	if err != nil {
		return nil, err
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	var sessions *sessionPool
	if cfg.PoolUnits >= 0 {
		units := cfg.PoolUnits
		if units == 0 {
			units = 256
		}
		sessions = newSessionPool(units, m)
	}
	return &Server{
		cfg:        cfg,
		m:          m,
		tracer:     obs.NewTracer(cfg.Traces),
		store:      store,
		pool:       NewPool(cfg.Workers, cfg.StageTimeout, m),
		loader:     NewLoaderCache(cfg.MaxModules, m),
		sessions:   sessions,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}, nil
}

// SetPeerFiller installs the cluster peer-fill hook. Call before the
// server starts serving traffic; the hook is read without locking.
func (s *Server) SetPeerFiller(f PeerFiller) { s.peerFiller = f }

// MaxSourceBytes reports the configured /compile request-body bound, so
// outer routing layers can enforce the same limit before forwarding.
func (s *Server) MaxSourceBytes() int64 { return s.cfg.MaxSourceBytes }

// Shutdown interrupts every in-flight guest run (each dies with
// rt.ErrInterrupted, which is reported inside its RunResult like any
// other budget kill — the HTTP response is still written in full) and
// waits until no runs remain in flight or ctx expires. New run sessions
// started after Shutdown are interrupted immediately, so the drain
// converges even while already-accepted connections trickle in.
func (s *Server) Shutdown(ctx context.Context) error {
	s.baseCancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.m.runsInFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats snapshots the server metrics plus the cache occupancies.
func (s *Server) Stats() Stats {
	st := s.m.snapshot()
	st.UnitsCached = s.store.Len()
	st.ModulesLoaded = s.loader.Len()
	if s.sessions != nil {
		st.PoolSessions = s.sessions.Len()
	}
	return st
}

// CompileUnit compiles (or fetches) the unit for a source set. The bool
// reports whether the unit was served from cache. Each call is recorded
// as one trace in the server's ring buffer, with the producer stages as
// nested spans when the pipeline actually runs.
func (s *Server) CompileUnit(ctx context.Context, files map[string]string, opts Options) (*Unit, bool, error) {
	if len(files) == 0 {
		return nil, false, &driver.Error{Kind: driver.KindParse,
			Err: errors.New("codeserver: empty source set")}
	}
	ctx, tr := s.tracer.StartTrace(ctx, "compile")
	defer tr.Finish()
	s.m.compileRequests.Add(1)
	// Normalize the tier before hashing: a server configured for the
	// interprocedural tier upgrades every optimizing request, and
	// ModuleOpt always implies Optimize. Hashing the normalized form
	// keeps one canonical key per effective pipeline.
	if s.cfg.ModuleOpt && opts.Optimize {
		opts.ModuleOpt = true
	}
	if opts.ModuleOpt {
		opts.Optimize = true
	}
	if s.cfg.WireVersion == 2 {
		opts.WireV2 = true
	}
	k := KeyFor(files, opts)
	return s.store.GetOrFill(ctx, k, func(ctx context.Context) (*Unit, error) {
		u, err := s.pool.Compile(ctx, files, opts)
		if err != nil {
			s.m.compileErrors.Add(1)
		}
		return u, err
	})
}

// AdmitUnit re-establishes type safety and referential security of
// peer-supplied wire bytes through the exact admission path a consumer
// applies to any received unit — wire.DecodeVerified, the paper's cheap
// per-plane counter checks — and builds the Unit from locally derived
// facts only (size and instruction count come from the local decode,
// never from peer metadata). Rejections are counted and returned as
// verify-kind errors; rejected bytes never reach either store tier.
func (s *Server) AdmitUnit(k Key, data []byte, optimized bool) (*Unit, error) {
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		s.m.peerFillRejects.Add(1)
		return nil, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: peer unit %s rejected by local admission: %w", k, err)}
	}
	return &Unit{Key: k, Wire: data, Size: len(data), Instrs: mod.NumInstrs(), Optimized: optimized}, nil
}

// AdmitReplica verifies and stores a unit pushed by a peer (hot-unit
// replication). The push is unsolicited, so it goes through the same
// admission as a pull-based peer fill before touching the store.
func (s *Server) AdmitReplica(k Key, data []byte, optimized bool) (*Unit, error) {
	u, err := s.AdmitUnit(k, data, optimized)
	if err != nil {
		return nil, err
	}
	s.m.peerFills.Add(1)
	s.store.Put(u)
	return u, nil
}

// PeerFillUnit returns the unit for k from the local store, or fills it
// with bytes fetched from its owner elsewhere in the fleet. The fetched
// bytes are untrusted: they must pass AdmitUnit before they are cached
// in either tier. Concurrent callers coalesce on one fetch through the
// store's singleflight, so a node asks the owner for a missing unit at
// most once at a time no matter how many requests race. The bool
// reports a local cache hit.
func (s *Server) PeerFillUnit(ctx context.Context, k Key, fetch func(context.Context) (data []byte, optimized bool, err error)) (*Unit, bool, error) {
	return s.store.GetOrFill(ctx, k, func(ctx context.Context) (*Unit, error) {
		fctx, sp := obs.Start(ctx, "peer_fill")
		defer sp.End()
		start := time.Now()
		data, optimized, err := fetch(fctx)
		if err != nil {
			s.m.peerFillErrors.Add(1)
			return nil, err
		}
		u, err := s.AdmitUnit(k, data, optimized)
		s.m.peerFillHist.Observe(time.Since(start))
		if err != nil {
			return nil, err
		}
		s.m.peerFills.Add(1)
		return u, nil
	})
}

// fillFromPeer resolves a store miss through the peer filler when one
// is installed; without one the miss stays ErrUnitNotFound.
func (s *Server) fillFromPeer(ctx context.Context, k Key) (*Unit, error) {
	if s.peerFiller == nil {
		return nil, ErrUnitNotFound
	}
	u, _, err := s.PeerFillUnit(ctx, k, func(ctx context.Context) ([]byte, bool, error) {
		return s.peerFiller.FetchUnit(ctx, k)
	})
	return u, err
}

// Unit returns the encoded distribution unit for a key, if present in
// the store (memory or disk).
func (s *Server) Unit(k Key) (*Unit, bool) { return s.store.Get(k) }

// RunResult is the outcome of one execution session.
type RunResult struct {
	OK     bool   `json:"ok"`
	Output string `json:"output"`
	Error  string `json:"error,omitempty"`
	Steps  int64  `json:"steps"`
	Allocs int64  `json:"allocs"`
}

// ErrUnitNotFound is returned by RunUnit for a hash the store does not
// hold.
var ErrUnitNotFound = errors.New("codeserver: unit not found")

// TenantBusyError is returned when a run would exceed the tenant's
// in-flight bound. The HTTP layer maps it to 429 with a Retry-After
// header; nothing is executed on the rejected path.
type TenantBusyError struct {
	Tenant string
	Limit  int
}

func (e *TenantBusyError) Error() string {
	return fmt.Sprintf("codeserver: tenant %q at its in-flight run limit (%d)", e.Tenant, e.Limit)
}

// clampBudget folds a per-request budget over the server cap: requests
// may ask for less than the cap but never more, and a request that asks
// for nothing (<= 0) gets the cap itself (or unlimited when the server
// sets none).
func clampBudget(req, cap int64) int64 {
	if cap > 0 && (req <= 0 || req > cap) {
		return cap
	}
	if req <= 0 {
		return 0
	}
	return req
}

// RunOptions selects the budgets and accounting identity of one run
// session. The zero value means: server-default budgets, tenant
// DefaultTenant.
type RunOptions struct {
	// MaxSteps / MaxAllocs request per-run budgets; both are clamped to
	// the server caps (<= 0 requests the cap itself).
	MaxSteps  int64
	MaxAllocs int64
	// Tenant is the accounting identity ("" folds to DefaultTenant).
	Tenant string
}

// RunUnit executes the unit's main with default budgets and tenant; see
// RunUnitOpts.
func (s *Server) RunUnit(ctx context.Context, k Key, maxSteps int64) (RunResult, error) {
	return s.RunUnitOpts(ctx, k, RunOptions{MaxSteps: maxSteps})
}

// RunUnitOpts executes the unit's main in an isolated session on the
// compiled engine: the decoded module and its compiled form come from
// the loader cache (shared read-only), while the class metadata,
// statics, and heap are per-session, so concurrent sessions cannot
// observe each other. When the warm-session pool holds a snapshot for
// the unit and the request's budgets admit it, the session is cloned from the
// post-static-init snapshot instead of re-running the initializers —
// byte-exact with a fresh session by the Snapshot contract. Guest
// failures (uncaught exceptions, budget kills) are reported inside
// RunResult, not as an error; a tenant over its in-flight bound gets a
// *TenantBusyError before any work happens.
func (s *Server) RunUnitOpts(ctx context.Context, k Key, opts RunOptions) (RunResult, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	tc := s.m.tenant(tenant)
	// Fair admission: bound the tenant's concurrent sessions before any
	// load or execution work happens, so one tenant's burst cannot
	// monopolize the run capacity of the node.
	if lim := s.cfg.TenantMaxInFlight; lim > 0 {
		if tc.inFlight.Add(1) > int64(lim) {
			tc.inFlight.Add(-1)
			tc.rejects.Add(1)
			s.m.tenantRejects.Add(1)
			return RunResult{}, &TenantBusyError{Tenant: tenant, Limit: lim}
		}
	} else {
		tc.inFlight.Add(1)
	}
	defer tc.inFlight.Add(-1)
	ctx, tr := s.tracer.StartTrace(ctx, "run")
	defer tr.Finish()
	maxSteps := clampBudget(opts.MaxSteps, s.cfg.MaxSteps)
	maxAllocs := clampBudget(opts.MaxAllocs, s.cfg.MaxAllocs)
	var snap *interp.Snapshot
	if s.sessions != nil {
		if snap = s.sessions.Get(k); snap != nil && !snap.Admits(maxSteps, maxAllocs) {
			// The request's budgets would have killed static init; a
			// clone cannot reproduce that mid-init death, so run fresh.
			s.m.poolDeclines.Add(1)
			snap = nil
		}
	}
	var lu *LoadedUnit
	var err error
	if snap == nil {
		lctx, lsp := obs.Start(ctx, "load")
		lu, err = s.loader.GetOrLoad(lctx, k, func() ([]byte, error) {
			u, ok := s.store.Get(k)
			if !ok {
				// Cluster mode: a run for a unit this node lacks pulls the
				// encoded bytes from the owner and re-admits them locally
				// before the loader ever sees them.
				pu, perr := s.fillFromPeer(lctx, k)
				if perr != nil {
					return nil, perr
				}
				u = pu
			}
			return u.Wire, nil
		})
		lsp.End()
		if err != nil {
			return RunResult{}, err
		}
	}
	s.m.runs.Add(1)
	s.m.runsInFlight.Add(1)
	_, esp := obs.Start(ctx, "exec")
	start := time.Now()
	var out bytes.Buffer
	// The guest's interrupt fires when the request is abandoned, the
	// server is draining (Shutdown cancelled baseCtx), or the wall-clock
	// run deadline expires — in every case the guest dies with
	// rt.ErrInterrupted while its HTTP exchange stays up.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stopAfter := context.AfterFunc(s.baseCtx, cancelRun)
	defer stopAfter()
	var deadlineCtx context.Context
	if s.cfg.RunTimeout > 0 {
		var cancelDeadline context.CancelFunc
		deadlineCtx, cancelDeadline = context.WithTimeout(context.Background(), s.cfg.RunTimeout)
		defer cancelDeadline()
		stopDeadline := context.AfterFunc(deadlineCtx, cancelRun)
		defer stopDeadline()
	}
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, MaxAlloc: maxAllocs, Interrupt: runCtx.Done()}
	res := RunResult{OK: true}
	var l *interp.Loader
	if snap != nil {
		l, err = snap.NewSession(env)
		if err == nil {
			s.m.poolHits.Add(1)
		}
	} else {
		l, err = interp.LoadTrustedDeferred(lu.Mod, nil, lu.Comp, env)
		if err == nil {
			err = l.RunStaticInit()
			if err == nil && s.sessions != nil {
				s.sessions.Offer(k, l, out.Bytes())
			}
		}
	}
	if err == nil {
		err = l.RunMain()
	}
	s.m.runHist.Observe(time.Since(start))
	esp.End()
	s.m.runsInFlight.Add(-1)
	s.m.guestSteps.Add(env.Steps)
	s.m.guestAllocs.Add(env.Allocs)
	tc.runs.Add(1)
	tc.steps.Add(env.Steps)
	tc.allocs.Add(env.Allocs)
	res.Output = out.String()
	res.Steps = env.Steps
	res.Allocs = env.Allocs
	if err != nil {
		s.m.runErrors.Add(1)
		reason := rt.KillReason(err)
		if reason == "interrupt" && deadlineCtx != nil && deadlineCtx.Err() != nil {
			// The interrupt the guest saw was the wall-clock enforcer,
			// not a client abort or drain.
			reason = "deadline"
		}
		s.m.recordKill(reason, tc)
		res.OK = false
		res.Error = err.Error()
	}
	return res, nil
}

// RunStreamResult is the outcome of one streaming run session: the run
// result plus the content address the admitted unit was cached under.
type RunStreamResult struct {
	RunResult
	// Hash is the wire-addressed key (KeyForWire) of the admitted unit;
	// it is only present when the whole stream verified cleanly, which
	// is also the only case where the unit was cached.
	Hash string `json:"hash,omitempty"`
}

// maxStreamUnitBytes bounds the body of one streaming run. A longer
// body is surfaced as a truncation (the decoder sees the stream end
// mid-unit) or as trailing garbage, both of which reject the unit.
const maxStreamUnitBytes = 64 << 20

// RunUnitStream executes a distribution unit delivered as raw wire
// bytes, starting the guest before the final byte arrives: the symbol
// tables are decoded and statically verified up front, each function is
// admitted by the plane-counter verifier the moment it streams in, and
// execution proceeds exactly as far as admitted code exists
// (wire.DecodeVerifiedStream + interp.LoadTrustedStreaming, reference
// engine). Any failure anywhere in the stream — truncation, a function
// the verifier rejects, trailing garbage — rejects the whole unit: the
// response is a verify error and nothing is cached in either the store
// or the loader tier. Only after Wait returns nil are the exact bytes
// cached under their wire address.
func (s *Server) RunUnitStream(ctx context.Context, body io.Reader, opts RunOptions) (RunStreamResult, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	tc := s.m.tenant(tenant)
	if lim := s.cfg.TenantMaxInFlight; lim > 0 {
		if tc.inFlight.Add(1) > int64(lim) {
			tc.inFlight.Add(-1)
			tc.rejects.Add(1)
			s.m.tenantRejects.Add(1)
			return RunStreamResult{}, &TenantBusyError{Tenant: tenant, Limit: lim}
		}
	} else {
		tc.inFlight.Add(1)
	}
	defer tc.inFlight.Add(-1)
	ctx, tr := s.tracer.StartTrace(ctx, "run_stream")
	defer tr.Finish()
	maxSteps := clampBudget(opts.MaxSteps, s.cfg.MaxSteps)
	maxAllocs := clampBudget(opts.MaxAllocs, s.cfg.MaxAllocs)

	// The body is teed into a buffer as it is consumed, so the bytes the
	// decoder admitted — and only those — can be cached afterwards.
	var buf bytes.Buffer
	tee := io.TeeReader(io.LimitReader(body, maxStreamUnitBytes+1), &buf)

	_, dsp := obs.Start(ctx, "wire_decode_stream")
	decodeStart := time.Now()
	su, err := wire.DecodeVerifiedStream(tee, wire.DecodeOptions{})
	if err != nil {
		s.m.wireDecodeStreamHist.Observe(time.Since(decodeStart))
		dsp.End()
		s.m.streamRejects.Add(1)
		return RunStreamResult{}, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: streamed unit rejected: %w", err)}
	}

	s.m.runs.Add(1)
	s.m.runsInFlight.Add(1)
	_, esp := obs.Start(ctx, "exec")
	start := time.Now()
	var out bytes.Buffer
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stopAfter := context.AfterFunc(s.baseCtx, cancelRun)
	defer stopAfter()
	var deadlineCtx context.Context
	if s.cfg.RunTimeout > 0 {
		var cancelDeadline context.CancelFunc
		deadlineCtx, cancelDeadline = context.WithTimeout(context.Background(), s.cfg.RunTimeout)
		defer cancelDeadline()
		stopDeadline := context.AfterFunc(deadlineCtx, cancelRun)
		defer stopDeadline()
	}
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, MaxAlloc: maxAllocs, Interrupt: runCtx.Done()}
	res := RunStreamResult{RunResult: RunResult{OK: true}}
	l, err := interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, env)
	if err == nil {
		err = l.RunMain()
	}
	// The guest may finish before the tail of the stream arrives;
	// admissibility of the whole unit is decided only by Wait.
	werr := su.Wait()
	s.m.wireDecodeStreamHist.Observe(time.Since(decodeStart))
	dsp.End()
	s.m.runHist.Observe(time.Since(start))
	esp.End()
	s.m.runsInFlight.Add(-1)
	s.m.guestSteps.Add(env.Steps)
	s.m.guestAllocs.Add(env.Allocs)
	tc.runs.Add(1)
	tc.steps.Add(env.Steps)
	tc.allocs.Add(env.Allocs)
	if werr != nil {
		s.m.streamRejects.Add(1)
		s.m.runErrors.Add(1)
		return RunStreamResult{}, &driver.Error{Kind: driver.KindVerify,
			Err: fmt.Errorf("codeserver: streamed unit rejected: %w", werr)}
	}
	res.Output = out.String()
	res.Steps = env.Steps
	res.Allocs = env.Allocs
	if err != nil {
		s.m.runErrors.Add(1)
		reason := rt.KillReason(err)
		if reason == "interrupt" && deadlineCtx != nil && deadlineCtx.Err() != nil {
			reason = "deadline"
		}
		s.m.recordKill(reason, tc)
		res.OK = false
		res.Error = err.Error()
	}
	data := bytes.Clone(buf.Bytes())
	k := KeyForWire(data)
	s.store.Put(&Unit{Key: k, Wire: data, Size: len(data), Instrs: su.Mod.NumInstrs()})
	res.Hash = k.String()
	return res, nil
}

// ---------------------------------------------------------------------
// HTTP API

// CompileRequest is the POST /compile body. Exported so the cluster
// layer (and load generators) speak the same wire shape.
type CompileRequest struct {
	Files    map[string]string `json:"files"`
	Optimize bool              `json:"optimize"`
	// ModuleOpt asks for the interprocedural optimizer tier (implies
	// Optimize); it yields a distinct unit hash from plain Optimize.
	ModuleOpt bool `json:"module_opt"`
}

// CompileResponse is the POST /compile response body.
type CompileResponse struct {
	Hash         string `json:"hash"`
	Size         int    `json:"size"`
	Instructions int    `json:"instructions"`
	Optimized    bool   `json:"optimized"`
	Cached       bool   `json:"cached"`
}

// RunRequest is the POST /run/{hash} body.
type RunRequest struct {
	MaxSteps  int64 `json:"max_steps"`
	MaxAllocs int64 `json:"max_allocs"`
	// Tenant is the accounting identity of the session; empty falls
	// back to the TenantHeader request header, then DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
}

// TenantHeader is the request header carrying the tenant identity when
// the body does not (and the header routing layers use to forward it).
const TenantHeader = "X-Safetsa-Tenant"

// ErrorResponse is the JSON error body every endpoint uses.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Handler returns the HTTP API:
//
//	POST /compile       {"files": {...}, "optimize": bool} → unit summary
//	GET  /unit/{hash}   raw distribution-unit bytes
//	POST /run/{hash}    {"max_steps": n} → execution result
//	POST /run-stream    raw unit bytes → streaming execution result
//	GET  /stats         metrics snapshot (JSON)
//	GET  /metrics       metrics in Prometheus text format
//	GET  /debug/traces  ring buffer of recent request traces (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("GET /unit/{hash}", s.handleUnit)
	mux.HandleFunc("POST /run/{hash}", s.handleRun)
	mux.HandleFunc("POST /run-stream", s.handleRunStream)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return mux
}

// WriteJSON writes an indented JSON body with the given status. Shared
// with the cluster layer so every endpoint keeps one response shape.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError maps a pipeline error onto an HTTP status: user-program
// faults are 4xx, pipeline faults and timeouts are 5xx.
func WriteError(w http.ResponseWriter, err error) {
	kindStr := driver.KindOf(err).String()
	status := http.StatusInternalServerError
	var busy *TenantBusyError
	switch {
	case errors.As(err, &busy):
		// Fair-admission rejection: the tenant is at its in-flight
		// bound; the client should back off briefly and retry.
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
		kindStr = "throttled"
	case errors.Is(err, ErrUnitNotFound):
		status = http.StatusNotFound
		kindStr = "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
	case driver.IsUserError(err):
		status = http.StatusBadRequest
	}
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kindStr})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSourceBytes+1))
	if err != nil {
		WriteError(w, err)
		return
	}
	if int64(len(body)) > s.cfg.MaxSourceBytes {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("source set exceeds %d bytes", s.cfg.MaxSourceBytes),
			Kind:  "parse",
		})
		return
	}
	var req CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "bad request body: " + err.Error(), Kind: "parse"})
		return
	}
	u, cached, err := s.CompileUnit(r.Context(), req.Files,
		Options{Optimize: req.Optimize, ModuleOpt: req.ModuleOpt})
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CompileResponse{
		Hash:         u.Key.String(),
		Size:         u.Size,
		Instructions: u.Instrs,
		Optimized:    u.Optimized,
		Cached:       cached,
	})
}

func (s *Server) handleUnit(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.PathValue("hash"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "parse"})
		return
	}
	u, ok := s.store.Get(k)
	if !ok {
		// Cluster mode: pull the unit from its owner (re-verified
		// locally) instead of bouncing the download back to the client.
		pu, err := s.fillFromPeer(r.Context(), k)
		if err != nil {
			WriteError(w, err)
			return
		}
		u = pu
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(u.Wire)))
	_, _ = w.Write(u.Wire)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.PathValue("hash"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "parse"})
		return
	}
	var req RunRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: "bad request body: " + err.Error(), Kind: "parse"})
			return
		}
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	res, err := s.RunUnitOpts(r.Context(), k, RunOptions{
		MaxSteps:  req.MaxSteps,
		MaxAllocs: req.MaxAllocs,
		Tenant:    req.Tenant,
	})
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// handleRunStream is POST /run-stream: the body is the raw distribution
// unit (octet-stream), executed as it arrives. Budgets and tenant ride
// on query parameters and the tenant header, since the body is the unit
// itself.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	opts := RunOptions{Tenant: r.Header.Get(TenantHeader)}
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"max_steps", &opts.MaxSteps}, {"max_allocs", &opts.MaxAllocs}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest, ErrorResponse{
					Error: fmt.Sprintf("bad %s: %v", p.name, err), Kind: "parse"})
				return
			}
			*p.dst = n
		}
	}
	res, err := s.RunUnitStream(r.Context(), r.Body, opts)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	poolSessions := 0
	if s.sessions != nil {
		poolSessions = s.sessions.Len()
	}
	s.m.WritePrometheus(w, s.store.Len(), s.loader.Len(), poolSessions)
}

// tracesResponse is the wire shape of /debug/traces.
type tracesResponse struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ts := s.tracer.Recent()
	if ts == nil {
		ts = []obs.TraceSnapshot{} // wire contract: always an array
	}
	WriteJSON(w, http.StatusOK, tracesResponse{Traces: ts})
}
