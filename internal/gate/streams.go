package gate

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"

	"repro/internal/httpapi"
	"repro/internal/parallel"
)

// mountStreams fronts the replicas' streaming-ingestion routes.
//
// Streams shard by *stream id* (not model name) through the same
// consistent-hash ring as models, so every append and score for one
// stream lands on the same replica and its incremental state stays in
// one place. Unlike scoring, stream requests are never hedged: an
// append raced against two replicas would split the stream's history
// across both. Failover is sequential instead — on a transport error
// the gate walks the ring order to the next replica, and because
// clients send the model name on every append, the stream is recreated
// there transparently (losing only the dead replica's buffered points,
// which the writer's next appends refill).
func (g *Gate) mountStreams(t *httpapi.Table) {
	byID := g.forward("id")
	for _, rt := range []httpapi.Route{httpapi.StreamAppend, httpapi.StreamScore, httpapi.StreamStatus, httpapi.StreamDelete} {
		t.Handle(rt, byID)
	}
	t.Handle(httpapi.StreamList, g.streamList)
	t.Handle(httpapi.StreamListSlash, g.streamList)
}

// forward returns the handler that sends a request to the home replica
// of its path value key (a model name or a stream id), walking the
// health-ranked ring order on transport failures, and relays the first
// answer: any HTTP status is authoritative for that key's home. The
// model listing has no path value; it goes to the home of the empty
// key, since every replica of a uniform fleet lists alike. The gate's
// timeout bounds the walk, except for a stream watch, which lives as
// long as its client wants; failover applies only to the connect, and a
// watch whose upstream breaks ends, so the client reconnects through
// the gate to the stream's new home.
func (g *Gate) forward(key string) httpapi.Handler {
	return func(r *http.Request, body []byte) httpapi.Reply {
		id := r.PathValue(key)
		var ctx context.Context
		var cancel context.CancelFunc
		if r.URL.Query().Get("watch") != "" {
			ctx, cancel = context.WithCancel(r.Context())
		} else {
			ctx, cancel = context.WithTimeout(r.Context(), g.cfg.Timeout)
		}
		contentType := r.Header.Get("Content-Type")
		if contentType == "" {
			contentType = "application/json"
		}
		f := g.cfg.Table.Fleet()
		var lastErr error
		for _, name := range g.rankedOrder(id) {
			target := f.urls[name] + r.URL.Path
			if q := r.URL.RawQuery; q != "" {
				target += "?" + q
			}
			resp, err := g.client(name).Do(ctx, r.Method, target, contentType, "", body)
			g.cfg.Metrics.replicas.Inc(name, outcome(err))
			if err == nil {
				return httpapi.Relay(resp, cancel)
			}
			if ctx.Err() != nil {
				cancel()
				return httpapi.Errorf(http.StatusGatewayTimeout, "fleet did not answer within %v", g.cfg.Timeout)
			}
			lastErr = err
		}
		cancel()
		return httpapi.Errorf(http.StatusBadGateway, "no replica answered %s %s: %v", r.Method, r.URL.Path, lastErr)
	}
}

// streamList gathers the live stream ids across the whole fleet:
// streams shard by id, so no single replica knows the full set. Every
// replica is asked at once, each leg through its resilience client
// under the gate's timeout, so one replica that never answers costs the
// listing its own leg, not the others'. Replicas that fail to answer
// are skipped — the list is a best-effort operator view, not a
// transactional one.
func (g *Gate) streamList(r *http.Request, _ []byte) httpapi.Reply {
	f := g.cfg.Table.Fleet()
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()
	names := f.ring.Names()
	lists := make([][]string, len(names))
	answered := make([]bool, len(names))
	parallel.For(len(names), len(names), func(_, i int) {
		lists[i], answered[i] = g.replicaStreams(ctx, names[i], f.urls[names[i]])
	})
	if !slices.Contains(answered, true) {
		return httpapi.Errorf(http.StatusBadGateway, "no replica answered the stream listing")
	}
	seen := make(map[string]bool)
	for _, list := range lists {
		for _, id := range list {
			seen[id] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return httpapi.JSON(map[string]any{"streams": ids, "active": len(ids)})
}

// replicaStreams is one leg of the stream listing: the ids the replica
// name at base lists, and whether it answered with a readable 200.
func (g *Gate) replicaStreams(ctx context.Context, name, base string) ([]string, bool) {
	resp, err := g.client(name).Do(ctx, http.MethodGet, base+"/v1/streams", "application/json", "", nil)
	g.cfg.Metrics.replicas.Inc(name, outcome(err))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var view struct {
		Streams []string `json:"streams"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&view); err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return view.Streams, true
}
