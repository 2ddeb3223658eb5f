package gate

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// FaultBudgetInbound is the fault-injection point hit while parsing the
// inbound deadline header on every scoring request. Arming it with an
// error makes the parse fail as if the header were malformed, so the
// reject path is testable without crafting broken clients.
const FaultBudgetInbound = "gate.budget.inbound"

// Config wires a Gate together. Table is required; everything else has
// serviceable defaults.
type Config struct {
	Table   *Table
	Health  *Health
	Metrics *Metrics
	Logger  *slog.Logger
	// HedgeDelay is how long the primary replica may stay silent before
	// the secondary leg launches; 0 means 50ms.
	HedgeDelay time.Duration
	// Timeout bounds one gateway request end to end; 0 means 30s.
	Timeout time.Duration
	// MaxBodyBytes caps every inbound request body, /v1/jobs submits and
	// stream appends included; 0 means 32 MiB.
	MaxBodyBytes int64
	// Attempts is the per-leg retry count (resilience.Client); 0 means 2
	// — the hedge, not deep retry stacks, owns availability.
	Attempts int
	// BreakerThreshold opens a replica's circuit after that many
	// consecutive failures; 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is the open-circuit probe interval; 0 means 1s.
	BreakerCooldown time.Duration
	// Brownout is the sliding-window overload detector driving hedge
	// suppression and Retry-After derivation; nil means defaults with
	// SlowAfter = Timeout/2.
	Brownout *Brownout
	// EnableJobs mounts the async bulk-scoring endpoints (POST /v1/jobs
	// and friends) on the gate. Chunks are scatter/gathered across the
	// fleet: each chunk shards by model#index on the consistent-hash
	// ring, so a big job spreads over every healthy replica instead of
	// camping on the model's primary.
	EnableJobs bool
	// JobOptions tunes the bulk-scoring manager. Runner is ignored —
	// the gate itself scores chunks.
	JobOptions jobs.Options
}

// Gate is the scale-out front tier: it consistent-hash-shards model
// names across the mfodserve replicas of a file-watched topology,
// health-checks them actively, and answers each scoring request through
// a hedged race between a model's primary replica and its ring
// successor. Requests leave the gate on the binary wire codec,
// whatever the client spoke. Canonical v1 surface:
//
//	POST /v1/score?model={name}     forwarded to the model's shard (hedged)
//	POST /v1/reload?model={name}    broadcast to every replica
//	GET  /v1/models                 forwarded to one replica (a uniform fleet answers alike)
//	GET  /v1/models/{name}          forwarded to the model's shard
//	GET  /v1/topology               current fleet, routing and health view
//	POST /v1/jobs                   async bulk scoring, scatter/gathered (EnableJobs)
//	GET  /v1/jobs/{id}[/results]    poll / stream a job
//	/v1/streams/{id}/...            streaming ingestion, sharded by stream id (never hedged)
//	GET  /v1/streams                live stream ids gathered across the fleet
//	GET  /healthz                   gate liveness
//	GET  /readyz                    503 until a replica is healthy / while draining
//	GET  /metrics                   Prometheus text exposition
//
// Every route but /v1/topology is a replica route too: both tiers mount
// the shared entries of internal/httpapi on their route tables, so the
// gate answers the same 405s and the same envelopes, and caps every
// body at Config.MaxBodyBytes.
type Gate struct {
	cfg      Config
	hedge    resilience.Hedge
	budget   *resilience.RetryBudget
	jobs     *jobs.Manager
	draining atomic.Bool

	mu      sync.Mutex
	clients map[string]*resilience.Client // per-replica breaker clients, by name

	// served holds each model name a replica has answered for with
	// anything but a 404 (replicas 404 an unknown model before anything
	// else): the names that may label the gate's requests.
	served sync.Map
}

// New validates the config and returns a Gate.
func New(cfg Config) (*Gate, error) {
	if cfg.Table == nil {
		return nil, errors.New("gate: Config needs a topology Table")
	}
	if cfg.Health == nil {
		cfg.Health = &Health{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	if cfg.Brownout == nil {
		cfg.Brownout = NewBrownout(BrownoutOptions{SlowAfter: cfg.Timeout / 2})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	g := &Gate{
		cfg:     cfg,
		hedge:   resilience.Hedge{Delay: cfg.HedgeDelay},
		budget:  resilience.NewRetryBudget(0, 0),
		clients: make(map[string]*resilience.Client),
	}
	if cfg.EnableJobs {
		opt := cfg.JobOptions
		def := defaultJobOptions(cfg.Timeout)
		if opt.ChunkSize <= 0 {
			opt.ChunkSize = def.ChunkSize
		}
		if opt.Tokens <= 0 {
			opt.Tokens = def.Tokens
		}
		if opt.MaxAttempts <= 0 {
			opt.MaxAttempts = def.MaxAttempts
		}
		if opt.Backoff <= 0 {
			opt.Backoff = def.Backoff
		}
		if opt.ChunkTimeout <= 0 {
			opt.ChunkTimeout = def.ChunkTimeout
		}
		opt.Runner = g
		mgr, err := jobs.NewManager(opt)
		if err != nil {
			return nil, err
		}
		g.jobs = mgr
	}
	r := cfg.Metrics.reg
	r.GaugeFunc("mfodgate_replicas", "Replicas in the current topology.", func() int { return cfg.Table.Fleet().ring.Len() })
	r.GaugeFunc("mfodgate_replica_down", "Replicas currently failing health checks.", func() int {
		return len(cfg.Health.Snapshot())
	})
	r.InfoFunc("mfodgate_replica_down_info", "One series per replica currently failing health checks.", "replica", func() []string {
		var names []string
		for n := range cfg.Health.Snapshot() {
			names = append(names, n)
		}
		return names
	})
	r.GaugeFunc("mfodgate_brownout", "Whether the gate is in brownout mode (hedges suppressed).", func() int {
		if cfg.Brownout.Active() {
			return 1
		}
		return 0
	})
	r.CounterFunc("mfodgate_topology_reloads_total", "Successful topology hot-reloads.", cfg.Table.reloads.Load)
	return g, nil
}

// Drain flips readiness to 503; in-flight requests keep running.
func (g *Gate) Drain() { g.draining.Store(true) }

// Jobs returns the bulk-scoring manager when EnableJobs was set (nil
// otherwise); callers own closing it on shutdown.
func (g *Gate) Jobs() *jobs.Manager { return g.jobs }

// client returns the resilience client for a replica, creating it (and
// its breaker) on first use. Clients persist across topology reloads
// keyed by replica name, so a reload does not reset breaker state for
// replicas that stayed.
func (g *Gate) client(name string) *resilience.Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.clients[name]; ok {
		return c
	}
	// A miss means the fleet changed since this map was last filled;
	// drop clients for replicas a topology reload removed, so replica
	// name churn cannot grow the map without bound over a gate's life.
	urls := g.cfg.Table.Fleet().urls
	for n := range g.clients {
		if _, live := urls[n]; !live {
			delete(g.clients, n)
		}
	}
	c := &resilience.Client{
		MaxAttempts: g.cfg.Attempts,
		Backoff:     &resilience.Backoff{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, Seed: 1},
		RetryBudget: g.budget,
		Breaker:     resilience.NewBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerCooldown),
	}
	g.clients[name] = c
	return c
}

// Route resolves the current primary and secondary replica for a model
// name: the ring's preference order filtered through health, falling
// back to the raw ring order when health has everything down (the
// breaker and hedge then sort out reality). Exposed for tests and the
// topology endpoint.
func (g *Gate) Route(model string) (primary, secondary string) {
	order := g.rankedOrder(model)
	primary = order[0]
	if len(order) > 1 {
		secondary = order[1]
	}
	return primary, secondary
}

// rankedOrder is the ring's preference order for a key with healthy
// replicas first; never empty for a non-empty fleet.
func (g *Gate) rankedOrder(key string) []string {
	f := g.cfg.Table.Fleet()
	order := f.ring.Order(key, 0)
	healthy := make([]string, 0, len(order))
	for _, name := range order {
		if g.cfg.Health.Up(name) {
			healthy = append(healthy, name)
		}
	}
	if len(healthy) == 0 {
		return order
	}
	// Unhealthy replicas stay as trailing fallbacks: health probes lag
	// reality, and a chunk retry may land after a replica recovered.
	for _, name := range order {
		if !g.cfg.Health.Up(name) {
			healthy = append(healthy, name)
		}
	}
	return healthy
}

// Handler returns the routing handler: the tier's route table, which
// counts every /v1 request under mfodgate_requests_total and logs it,
// under its ?model= only once a replica has answered for that model.
func (g *Gate) Handler() http.Handler {
	t := httpapi.NewTable(g.cfg.MaxBodyBytes, g.cfg.Logger, g.cfg.Metrics.ObserveRequest, func(model string) bool {
		_, ok := g.served.Load(model)
		return ok
	})
	t.Probes(g.ready, g.cfg.Metrics.reg.WritePrometheus)
	t.Handle(httpapi.Score, g.handleScore)
	t.Handle(httpapi.Reload, g.handleReload)
	byModel := g.forward("name")
	t.Handle(httpapi.Models, byModel)
	t.Handle(httpapi.ModelInfo, byModel)
	t.Handle(httpapi.Topology, g.handleTopology)
	g.mountStreams(t)
	if g.jobs != nil {
		api := &jobs.API{
			Manager: g.jobs,
			// Structural invariants only at the edge; each chunk passes
			// through the replicas' full sanitizer anyway.
			Validate: func(ds fda.Dataset) error { return ds.Validate() },
		}
		api.Mount(t)
	}
	return t.Handler()
}

// answered records a replica's answer for model: anything but a 404
// says the replica serves it.
func (g *Gate) answered(model string, resp *http.Response) {
	if resp.StatusCode == http.StatusNotFound {
		return
	}
	if _, ok := g.served.Load(model); !ok {
		g.served.Store(model, struct{}{})
	}
}

// ready is the readiness check: not while draining, and not before a
// replica is healthy.
func (g *Gate) ready() error {
	if g.draining.Load() {
		return errors.New("draining")
	}
	for _, name := range g.cfg.Table.Fleet().ring.Names() {
		if g.cfg.Health.Up(name) {
			return nil
		}
	}
	return errors.New("no healthy replicas")
}

// handleTopology renders the operator view: replicas, health and the
// route every loaded model would take is left to the client (routes are
// a pure function of the model name via /v1/topology?route=<model>).
func (g *Gate) handleTopology(r *http.Request, _ []byte) httpapi.Reply {
	f := g.cfg.Table.Fleet()
	down := g.cfg.Health.Snapshot()
	type replicaView struct {
		Name string `json:"name"`
		URL  string `json:"url"`
		Up   bool   `json:"up"`
	}
	out := struct {
		Path     string        `json:"path"`
		LoadedAt time.Time     `json:"loadedAt"`
		VNodes   int           `json:"vnodes"`
		Replicas []replicaView `json:"replicas"`
		Route    []string      `json:"route,omitempty"`
	}{Path: g.cfg.Table.Path(), LoadedAt: f.loadedAt, VNodes: f.topo.VNodes}
	if out.VNodes <= 0 {
		// The file omitted vnodes; report what the ring actually uses.
		out.VNodes = DefaultVNodes
	}
	for _, name := range f.ring.Names() {
		out.Replicas = append(out.Replicas, replicaView{Name: name, URL: f.urls[name], Up: !down[name]})
	}
	if model := r.URL.Query().Get("route"); model != "" {
		primary, secondary := g.Route(model)
		out.Route = append(out.Route, primary)
		if secondary != "" {
			out.Route = append(out.Route, secondary)
		}
	}
	return httpapi.JSON(out)
}

// handleReload broadcasts a model reload to every replica — a sharded
// deployment does not know which replica holds the model, and reloading
// a model a replica does not serve is that replica's 404 to report.
// Any replica that does not answer 200 makes the broadcast a 502
// upstream_error naming each failing replica and its status.
func (g *Gate) handleReload(r *http.Request, _ []byte) httpapi.Reply {
	model, perr := httpapi.ModelParam(r)
	if perr != nil {
		return perr
	}
	f := g.cfg.Table.Fleet()
	results := make(map[string]string, f.ring.Len())
	var failed []string
	for _, name := range f.ring.Names() {
		resp, err := g.client(name).Do(r.Context(), http.MethodPost, scoreURL(f.urls[name], "/v1/reload", model, nil), "application/json", "", nil)
		if err != nil {
			failed = append(failed, name+": "+err.Error())
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		g.answered(model, resp)
		results[name] = resp.Status
		if resp.StatusCode != http.StatusOK {
			failed = append(failed, name+": "+resp.Status)
		}
	}
	if len(failed) > 0 {
		return httpapi.Errorf(http.StatusBadGateway,
			"reload of %q failed on %d of %d replicas: %s", model, len(failed), f.ring.Len(), strings.Join(failed, "; "))
	}
	return httpapi.JSON(map[string]any{"model": model, "replicas": results})
}

// scoreURL builds a canonical upstream URL: base + path with model (and
// any passthrough params) in the query string.
func scoreURL(base, path, model string, passthrough map[string][]string) string {
	q := url.Values{}
	for key, vals := range passthrough {
		if key == "model" {
			continue
		}
		q[key] = vals
	}
	q.Set("model", model)
	return base + path + "?" + q.Encode()
}

// upstreamBody returns the upstream payload of a scoring body as a
// binary wire frame. JSON bodies are transcoded; wire bodies pass
// through untouched — the gate never decodes what it can forward.
func upstreamBody(r *http.Request, raw []byte) ([]byte, *httpapi.Error) {
	ct := r.Header.Get("Content-Type")
	if wire.IsFrame(ct) {
		return raw, nil
	}
	// Transcode JSON → wire so the fleet's internal traffic rides the
	// compact codec even for JSON clients. The replicas' own decoder
	// rules apply here, so a body the gate cannot parse fails with the
	// 400 a replica would give, at the hop that is to blame.
	req, err := wire.DecodeBody(ct, raw)
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "decode body: %v", err)
	}
	return wire.EncodeRequest(req.Request), nil
}

// handleScore is the hot path POST /v1/score?model=: resolve the
// model's shard, race the hedged legs, relay the winning replica answer.
func (g *Gate) handleScore(r *http.Request, raw []byte) httpapi.Reply {
	model, perr := httpapi.ModelParam(r)
	if perr != nil {
		return perr
	}
	start := time.Now()
	reply := g.score(r, raw, model)
	g.cfg.Brownout.Observe(httpapi.StatusOf(reply), time.Since(start))
	return reply
}

func (g *Gate) score(r *http.Request, raw []byte, model string) httpapi.Reply {
	// Resolve the request's time budget before decoding the body: a
	// caller that already gave up costs nothing further, and a malformed
	// header is the sender's bug to hear about immediately.
	budget, berr := resilience.BudgetFromHeader(r.Header)
	if ferr := faultinject.Hit(FaultBudgetInbound); ferr != nil {
		budget, berr = nil, ferr
	}
	if berr != nil {
		g.cfg.Metrics.deadlineRejected.Inc()
		return httpapi.Errorf(http.StatusBadRequest, "%v", berr)
	}
	if budget == nil {
		// No propagated deadline: the gate's own timeout is the edge
		// default, and downstream hops see it as their budget.
		budget = resilience.NewBudget(g.cfg.Timeout)
	}
	if budget.Expired() {
		g.cfg.Metrics.deadlineExpired.Inc()
		return httpapi.Errorf(http.StatusGatewayTimeout, "deadline in %s already expired", resilience.DeadlineHeader)
	}
	body, uerr := upstreamBody(r, raw)
	if uerr != nil {
		return uerr
	}
	f := g.cfg.Table.Fleet()
	primary, secondary := g.Route(model)
	target := func(name string) string {
		return scoreURL(f.urls[name], "/v1/score", model, r.URL.Query())
	}
	leg := func(name string) func(ctx context.Context) (*http.Response, error) {
		return func(ctx context.Context) (*http.Response, error) {
			resp, err := g.client(name).Do(ctx, http.MethodPost, target(name), wire.ContentType, "", body)
			g.cfg.Metrics.replicas.Inc(name, outcome(err))
			if err == nil {
				g.cfg.Metrics.upstreamBytes.Add(uint64(len(body)), "wire")
				g.answered(model, resp)
			}
			return resp, err
		}
	}
	var secondaryLeg func(ctx context.Context) (*http.Response, error)
	suppressed := false
	if secondary != "" {
		// The race calls the secondary leg only when it launches it.
		call := leg(secondary)
		secondaryLeg = func(ctx context.Context) (*http.Response, error) {
			g.cfg.Metrics.hedges.Inc()
			return call(ctx)
		}
		if g.cfg.Brownout.Active() {
			// Brownout: the speculative duplicate doubles upstream load
			// exactly when the window says the fleet cannot absorb it, so
			// the race drops to failover-only — the secondary still covers
			// a primary that *fails*, it just no longer races one that is
			// merely slow.
			suppressed = true
			g.cfg.Metrics.hedgesSuppressed.Inc()
		}
	}
	// The per-hop timeout is capped at the remaining budget: this hop
	// never works past the moment the caller walks away. The budget
	// rides the context so retry and hedge layers spend it honestly.
	// The context outlives this function: the relay copies the winning
	// answer's body under it, then cancels it.
	timeout := g.cfg.Timeout
	if rem := budget.Remaining(); rem < timeout {
		timeout = rem
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	ctx = resilience.WithBudget(ctx, budget)
	race := g.hedge.Do
	if suppressed {
		race = g.hedge.DoFailoverOnly
	}
	resp, winner, err := race(ctx, leg(primary), secondaryLeg)
	g.cfg.Metrics.legWins.Inc(winner.String())
	if err != nil {
		cancel()
		// Both legs failed (or the only leg did): the fleet could not
		// answer. 504 on a spent deadline or budget, 502 otherwise.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, resilience.ErrBudgetExhausted) {
			g.cfg.Metrics.deadlineExpired.Inc()
			return httpapi.Errorf(http.StatusGatewayTimeout, "fleet did not answer within %v", timeout)
		}
		return httpapi.Errorf(http.StatusBadGateway, "fleet error via %s: %v", primary, err)
	}
	return g.relayScore(resp, cancel)
}

// relayScore relays a replica's scoring answer, then calls done.
// Backpressure responses (429/503) get a Retry-After derived from the
// gate's own pressure window when that is more conservative than the
// replica's hint — the gate sees the whole fleet's distress, one
// replica only its own. The envelope is rewritten with the header, so
// the relayed retry_after_ms never contradicts the relayed Retry-After.
func (g *Gate) relayScore(resp *http.Response, done func()) httpapi.Reply {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return httpapi.Relay(resp, done)
	}
	defer done()
	hint := 0
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		hint = s
	}
	if derived := g.cfg.Brownout.RetryAfter(); derived > hint {
		hint = derived
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	ae := httpapi.ParseError(resp.StatusCode, raw)
	return httpapi.Errorf(resp.StatusCode, "%s", ae.Message).Retry(time.Duration(hint) * time.Second)
}
