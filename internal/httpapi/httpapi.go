// Package httpapi defines the v1 HTTP contract shared by every service
// surface of the repository — the mfodserve replicas, the mfodgate
// front tier and the async jobs API: `/v1/score`, `/v1/reload`,
// `/v1/models…`, `/v1/topology`, `/v1/jobs…` and `/v1/streams…`.
//
// Its core is the error envelope. Every 4xx/5xx response body repo-wide
// is exactly one shape:
//
//	{"error": {"code": "overloaded", "message": "...", "retry_after_ms": 2000}}
//
// `code` is a stable machine-readable string from the Code* constants
// (clients switch on it; the HTTP status alone conflates e.g. a spent
// deadline 504 with an upstream 504), `message` is the operator-facing
// explanation, and `retry_after_ms` appears exactly when the response
// also carries a Retry-After header — same value, finer unit, so
// clients that only read bodies still see honest backpressure hints.
//
// Its other half is the route table (table.go): each v1 route is
// declared once here, both tiers attach handlers to the same entries,
// and a handler returns a Reply (reply.go) instead of writing one. The
// table is the only writer of responses, so an error can only leave as
// the envelope, and the body cap, the 405s and the observation of each
// request follow from the table.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Stable machine-readable error codes of the v1 envelope. Codes name the
// *class* of failure, not the HTTP status: clients branch on these.
const (
	// CodeBadRequest: the request itself is malformed — undecodable
	// body, bad query parameter, failed sanitization.
	CodeBadRequest = "bad_request"
	// CodeNotFound: no such route, model or job.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not under this method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeTooLarge: the body exceeded the configured byte cap.
	CodeTooLarge = "payload_too_large"
	// CodeUnprocessable: the request decoded cleanly but the model
	// cannot score it (wrong dimension, explain without Standardize, …).
	CodeUnprocessable = "unprocessable"
	// CodeOverloaded: admission control shed the request (AIMD limit,
	// full queue, job cap); retry after the advertised delay.
	CodeOverloaded = "overloaded"
	// CodeUnavailable: the service is draining or not ready.
	CodeUnavailable = "unavailable"
	// CodeDeadlineExceeded: the propagated deadline budget expired
	// before an answer existed.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeUpstream: a gateway could not get a usable answer from its
	// fleet (transport failure, every leg down).
	CodeUpstream = "upstream_error"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorDetail is the inner object of the v1 error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs mirrors the Retry-After header in milliseconds; 0
	// (omitted) when the response carries no retry hint.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// ErrorBody is the v1 error envelope: every 4xx/5xx response body.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// CodeForStatus maps an HTTP status to the default envelope code, for
// writers that have no more specific class to report.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeDeadlineExceeded
	case http.StatusBadGateway:
		return CodeUpstream
	default:
		return CodeInternal
	}
}

// APIError is the client-side decoding of a v1 error envelope: the
// error type returned by internal/client (and any other consumer) for a
// non-2xx response whose body parses as the envelope.
type APIError struct {
	Status       int
	Code         string
	Message      string
	RetryAfterMs int64
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server error %d (%s): %s", e.Status, e.Code, e.Message)
}

// ParseError decodes a non-2xx response body into an *APIError. A body
// that is not a v1 envelope yields an APIError with the default code
// for the status and the raw body as its message, so callers always get
// a structured error back.
func ParseError(status int, body []byte) *APIError {
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		return &APIError{
			Status:       status,
			Code:         eb.Error.Code,
			Message:      eb.Error.Message,
			RetryAfterMs: eb.Error.RetryAfterMs,
		}
	}
	return &APIError{Status: status, Code: CodeForStatus(status), Message: string(body)}
}

// NDJSONContentType is the content type of the line-delimited JSON
// streaming responses (bulk-job results, stream score-event watches).
const NDJSONContentType = "application/x-ndjson"

// CodecHeader names the response header echoing which request codec the
// serving hop actually decoded ("json" or "wire"). The gate relays it,
// so a client — and the e2e suites — can assert the codec each internal
// hop really spoke instead of trusting flag plumbing.
const CodecHeader = "X-Mfod-Codec"
