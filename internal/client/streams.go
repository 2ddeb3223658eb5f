package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/stream"
)

// Streaming ingestion. A stream accumulates one evolving curve through
// incremental appends and serves early-warning partial-curve scores
// that widen as observations land; /v1/streams shards by stream id
// when pointed at a gate. Appends always carry the model name — they
// are idempotent at the observation level (a duplicate time replaces
// the value), so retries and gate failovers are safe, and a failover
// to a fresh replica recreates the stream from the model name alone.

// streamURL builds /v1/streams/{id}{suffix} with the id path-escaped.
func (c *Client) streamURL(id, suffix string) string {
	return c.base + "/v1/streams/" + url.PathEscape(id) + suffix
}

// StreamAppend appends points to stream id under model. When withScore
// is set the acknowledgement piggybacks a fresh score event, saving the
// follow-up poll.
func (c *Client) StreamAppend(ctx context.Context, id, model string, pts []stream.Point, withScore bool) (*stream.AppendResult, error) {
	body, err := json.Marshal(struct {
		Model  string         `json:"model"`
		Points []stream.Point `json:"points"`
	}{Model: model, Points: pts})
	if err != nil {
		return nil, fmt.Errorf("client: encode append: %w", err)
	}
	u := c.streamURL(id, "/append")
	if withScore {
		u += "?score=1"
	}
	resp, err := c.rc.Do(ctx, http.MethodPost, u, "application/json", "", body)
	if err != nil {
		return nil, fmt.Errorf("client: stream append: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out stream.AppendResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode append response: %w", err)
	}
	return &out, nil
}

// StreamDelete closes and forgets the stream.
func (c *Client) StreamDelete(ctx context.Context, id string) error {
	resp, err := c.rc.Do(ctx, http.MethodDelete, c.streamURL(id, ""), "", "", nil)
	if err != nil {
		return fmt.Errorf("client: stream delete: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return nil
}
