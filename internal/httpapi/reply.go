package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"
)

// Reply is the whole answer of a route handler. The set is closed —
// an error envelope, a JSON value, bytes, NDJSON lines and a relayed
// upstream response — and sealed by the unexported methods, so no other
// package can add a reply that writes its own status. Only the route
// table (table.go) writes a reply, so only it writes statuses.
type Reply interface {
	// status is the HTTP status the reply answers with.
	status() int
	// write sends the reply, status first.
	write(w http.ResponseWriter)
}

// StatusOf returns the status a reply answers with, for the callers
// that feed it back into their own control loops: the replica's AIMD
// limiter and the gate's brownout window.
func StatusOf(r Reply) int { return r.status() }

// Error is the error reply: a v1 envelope. Its code is the default code
// for its status (CodeForStatus), so the two cannot disagree.
type Error struct {
	code       int
	message    string
	retryAfter time.Duration // 0: no retry hint
	allow      string        // the Allow header of a 405
}

// Errorf is an error reply with status and a formatted message.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{code: status, message: fmt.Sprintf(format, args...)}
}

// Retry adds a retry hint to e: the Retry-After header (whole seconds,
// rounded up, at least 1) and the same hint as retry_after_ms in the
// body, so clients that only read bodies see honest backpressure too.
func (e *Error) Retry(after time.Duration) *Error {
	e.retryAfter = max(after, time.Second)
	return e
}

func (e *Error) Error() string { return e.message }

func (e *Error) status() int { return e.code }

func (e *Error) write(w http.ResponseWriter) {
	d := ErrorDetail{Code: CodeForStatus(e.code), Message: e.message}
	if e.retryAfter > 0 {
		secs := int64((e.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		d.RetryAfterMs = secs * 1000
	}
	if e.allow != "" {
		w.Header().Set("Allow", e.allow)
	}
	writeJSON(w, e.code, ErrorBody{Error: d})
}

// JSONReply is a 2xx reply carrying one JSON value.
type JSONReply struct {
	code   int
	header http.Header
	v      any
}

// JSON is a 200 reply carrying v.
func JSON(v any) *JSONReply { return &JSONReply{code: http.StatusOK, v: v} }

// Accepted is a 202 reply carrying v, with a Location header naming
// where the accepted work can be followed.
func Accepted(location string, v any) *JSONReply {
	return (&JSONReply{code: http.StatusAccepted, v: v}).WithHeader("Location", location)
}

// WithHeader sets a response header on the reply.
func (j *JSONReply) WithHeader(key, value string) *JSONReply {
	if j.header == nil {
		j.header = http.Header{}
	}
	j.header.Set(key, value)
	return j
}

func (j *JSONReply) status() int { return j.code }

func (j *JSONReply) write(w http.ResponseWriter) {
	for k, v := range j.header {
		w.Header()[k] = v
	}
	writeJSON(w, j.code, j.v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type bytesReply struct {
	contentType string
	body        []byte
}

// Bytes is a 200 reply carrying body under contentType.
func Bytes(contentType string, body []byte) Reply { return bytesReply{contentType, body} }

func (b bytesReply) status() int { return http.StatusOK }

func (b bytesReply) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", b.contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(b.body)
}

type linesReply func(emit func(v any) error)

// Lines is a 200 NDJSON reply. produce writes the lines through emit,
// which encodes one value as one line and flushes it to the client at
// once; an error from emit means the client is gone, and produce
// returns. The status leaves before the first line, so a watcher knows
// its watch is live while it waits for an event.
func Lines(produce func(emit func(v any) error)) Reply { return linesReply(produce) }

func (l linesReply) status() int { return http.StatusOK }

func (l linesReply) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()
	enc := json.NewEncoder(w)
	l(func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		rc.Flush()
		return nil
	})
}

type relayReply struct {
	resp *http.Response
	done func()
}

// Relay is an upstream response relayed to the client: its status, its
// Content-Type, Retry-After and X-Mfod-Codec headers, and its body. An
// NDJSON answer is flushed at once and on every read, so a watcher sees
// its status at once and each line as it arrives; any other body is
// copied unflushed, so an interactive answer keeps its Content-Length.
// The table closes the body after the copy and then calls done, when
// it is not nil: the cancel of the context the upstream call ran
// under, which must outlive the handler.
func Relay(resp *http.Response, done func()) Reply { return relayReply{resp, done} }

func (rr relayReply) status() int { return rr.resp.StatusCode }

func (rr relayReply) write(w http.ResponseWriter) {
	defer func() {
		rr.resp.Body.Close()
		if rr.done != nil {
			rr.done()
		}
	}()
	for _, key := range []string{"Content-Type", "Retry-After", CodecHeader} {
		if v := rr.resp.Header.Get(key); v != "" {
			w.Header().Set(key, v)
		}
	}
	w.WriteHeader(rr.resp.StatusCode)
	if mt, _, _ := mime.ParseMediaType(rr.resp.Header.Get("Content-Type")); mt != NDJSONContentType {
		io.Copy(w, rr.resp.Body)
		return
	}
	rc := http.NewResponseController(w)
	rc.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := rr.resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}
