package gate

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"repro/internal/httpapi"
)

// registerStreams fronts the replicas' streaming-ingestion surface
// with the method patterns stream.API.Register uses, so a wrong method
// gets the same enveloped 405 and Allow header from the gate as from a
// replica, and only the methods a replica serves are proxied.
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
func (g *Gate) registerStreams(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/streams/{id}/append", g.streamForward)
	mux.HandleFunc("/v1/streams/{id}/append", httpapi.MethodNotAllowed("POST"))
	mux.HandleFunc("GET /v1/streams/{id}/score", g.streamScore)
	mux.HandleFunc("/v1/streams/{id}/score", httpapi.MethodNotAllowed("GET"))
	mux.HandleFunc("GET /v1/streams/{id}", g.streamForward)
	mux.HandleFunc("DELETE /v1/streams/{id}", g.streamForward)
	mux.HandleFunc("/v1/streams/{id}", httpapi.MethodNotAllowed("GET, DELETE"))
	mux.HandleFunc("GET /v1/streams", g.streamList)
	mux.HandleFunc("GET /v1/streams/{$}", g.streamList)
	mux.HandleFunc("/v1/streams", httpapi.MethodNotAllowed("GET"))
}

// streamTarget is r's path and query on the named replica.
func streamTarget(f *fleet, name string, r *http.Request) string {
	u := f.urls[name] + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	return u
}

// streamScore serves GET /v1/streams/{id}/score: a watch is relayed
// line by line, a plain score forwarded.
func (g *Gate) streamScore(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("watch") != "" {
		g.streamWatch(w, r)
		return
	}
	g.streamForward(w, r)
}

// streamForward sends the request to the stream's home replica, walking
// the ring order on transport failures, and relays the answer.
func (g *Gate) streamForward(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body []byte
	if r.Method == http.MethodPost {
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			httpapi.BodyError(w, err)
			return
		}
		body = raw
	}
	contentType := r.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	f := g.cfg.Table.Fleet()
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()
	var lastErr error
	for _, name := range g.rankedOrder(id) {
		resp, err := g.client(name).Do(ctx, r.Method, streamTarget(f, name, r), contentType, "", body)
		g.cfg.Metrics.ObserveReplica(name, err == nil)
		if err != nil {
			if ctx.Err() != nil {
				httpapi.Error(w, http.StatusGatewayTimeout, "fleet did not answer within %v", g.cfg.Timeout)
				return
			}
			// Transport-level failure only: an HTTP answer — any status —
			// is authoritative for this stream's home and is relayed as-is.
			lastErr = err
			continue
		}
		relay(w, resp)
		return
	}
	httpapi.ErrorCode(w, http.StatusBadGateway, httpapi.CodeUpstream,
		"stream %q: no replica answered: %v", id, lastErr)
}

// streamWatch relays an NDJSON watch. The request context (not the gate
// timeout) bounds it — a watch lives as long as the client wants — and
// every read is flushed through immediately so early-warning events
// reach the watcher as they happen. Failover applies only to the
// initial connect; once bytes have flowed, a broken upstream ends the
// watch and the client reconnects (through the gate, which routes the
// reconnect to the stream's new home).
func (g *Gate) streamWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f := g.cfg.Table.Fleet()
	var lastErr error
	for _, name := range g.rankedOrder(id) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, streamTarget(f, name, r), nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		g.cfg.Metrics.ObserveReplica(name, err == nil)
		if err != nil {
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		flusher, _ := w.(http.Flusher)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}
	httpapi.ErrorCode(w, http.StatusBadGateway, httpapi.CodeUpstream,
		"stream %q: no replica answered the watch: %v", id, lastErr)
}

// streamList gathers the live stream ids across the whole fleet:
// streams shard by id, so no single replica knows the full set.
// Replicas that fail to answer are skipped — the list is a best-effort
// operator view, not a transactional one.
func (g *Gate) streamList(w http.ResponseWriter, r *http.Request) {
	f := g.cfg.Table.Fleet()
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()
	seen := make(map[string]bool)
	answered := 0
	for _, name := range f.ring.Names() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.urls[name]+"/v1/streams", nil)
		if err != nil {
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		var view struct {
			Streams []string `json:"streams"`
		}
		decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			continue
		}
		answered++
		for _, id := range view.Streams {
			seen[id] = true
		}
	}
	if answered == 0 {
		httpapi.ErrorCode(w, http.StatusBadGateway, httpapi.CodeUpstream,
			"no replica answered the stream listing")
		return
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"streams": ids, "active": len(ids)})
}
