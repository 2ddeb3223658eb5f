package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// written is the response a reply writes.
func written(reply Reply) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	reply.write(rec)
	return rec
}

func decode(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("body %q is not a v1 envelope: %v", body, err)
	}
	return eb
}

func TestCodeForStatus(t *testing.T) {
	cases := []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, CodeBadRequest},
		{http.StatusNotFound, CodeNotFound},
		{http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{http.StatusRequestEntityTooLarge, CodeTooLarge},
		{http.StatusUnprocessableEntity, CodeUnprocessable},
		{http.StatusTooManyRequests, CodeOverloaded},
		{http.StatusServiceUnavailable, CodeUnavailable},
		{http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{http.StatusBadGateway, CodeUpstream},
		{http.StatusInternalServerError, CodeInternal},
		{http.StatusTeapot, CodeInternal},
	}
	for _, c := range cases {
		if got := CodeForStatus(c.status); got != c.code {
			t.Errorf("CodeForStatus(%d) = %q, want %q", c.status, got, c.code)
		}
	}
}

func TestErrorWritesEnvelope(t *testing.T) {
	rec := written(Errorf(http.StatusUnprocessableEntity, "dimension %d != %d", 2, 3))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	eb := decode(t, rec.Body.Bytes())
	if eb.Error.Code != CodeUnprocessable {
		t.Errorf("code = %q", eb.Error.Code)
	}
	if eb.Error.Message != "dimension 2 != 3" {
		t.Errorf("message = %q", eb.Error.Message)
	}
	if eb.Error.RetryAfterMs != 0 {
		t.Errorf("retry_after_ms = %d, want absent", eb.Error.RetryAfterMs)
	}
}

func TestErrorRetrySetsHeaderAndBody(t *testing.T) {
	rec := written(Errorf(http.StatusTooManyRequests, "queue full").Retry(1500 * time.Millisecond))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rec.Code)
	}
	// 1.5s rounds up to a 2s Retry-After; the body mirrors the header
	// value, not the pre-rounding duration.
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	eb := decode(t, rec.Body.Bytes())
	if eb.Error.RetryAfterMs != 2000 {
		t.Errorf("retry_after_ms = %d, want 2000", eb.Error.RetryAfterMs)
	}

	// Sub-second hints are clamped to the 1-second floor of the header.
	rec = written(Errorf(http.StatusServiceUnavailable, "draining").Retry(10 * time.Millisecond))
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if eb := decode(t, rec.Body.Bytes()); eb.Error.RetryAfterMs != 1000 {
		t.Errorf("retry_after_ms = %d, want 1000", eb.Error.RetryAfterMs)
	}
}

func TestParseErrorRoundTrip(t *testing.T) {
	rec := written(Errorf(http.StatusTooManyRequests, "shed").Retry(3 * time.Second))
	ae := ParseError(rec.Code, rec.Body.Bytes())
	if ae.Status != http.StatusTooManyRequests || ae.Code != CodeOverloaded ||
		ae.Message != "shed" || ae.RetryAfterMs != 3000 {
		t.Fatalf("round trip mismatch: %+v", ae)
	}
	if ae.Error() == "" {
		t.Fatal("empty Error()")
	}
}

func TestParseErrorNonEnvelope(t *testing.T) {
	ae := ParseError(http.StatusBadGateway, []byte("<html>nginx</html>"))
	if ae.Code != CodeUpstream {
		t.Errorf("code = %q, want default for 502", ae.Code)
	}
	if ae.Message != "<html>nginx</html>" {
		t.Errorf("message = %q, want raw body", ae.Message)
	}
}

// TestEveryCodeRoundTrips drives every machine code the serve, gate,
// jobs and stream tiers emit through the full envelope cycle — write an
// Errorf reply, decode with ParseError — and pins the wire strings
// themselves. The wire literal is asserted against the raw JSON too, so
// renaming a Code* constant (which clients switch on) cannot slip
// through as a "refactor". This is the data-side contract behind the
// route table: handlers can only answer an error as an *Error, and an
// *Error is proven to round-trip.
func TestEveryCodeRoundTrips(t *testing.T) {
	cases := []struct {
		code   string
		wire   string // frozen v1 wire literal, asserted byte-for-byte
		status int
		retry  time.Duration // 0 = no hint
	}{
		{CodeBadRequest, "bad_request", http.StatusBadRequest, 0},
		{CodeNotFound, "not_found", http.StatusNotFound, 0},
		{CodeMethodNotAllowed, "method_not_allowed", http.StatusMethodNotAllowed, 0},
		{CodeTooLarge, "payload_too_large", http.StatusRequestEntityTooLarge, 0},
		{CodeUnprocessable, "unprocessable", http.StatusUnprocessableEntity, 0},
		{CodeOverloaded, "overloaded", http.StatusTooManyRequests, 2 * time.Second},
		{CodeUnavailable, "unavailable", http.StatusServiceUnavailable, 5 * time.Second},
		{CodeDeadlineExceeded, "deadline_exceeded", http.StatusGatewayTimeout, 0},
		{CodeUpstream, "upstream_error", http.StatusBadGateway, 0},
		{CodeInternal, "internal", http.StatusInternalServerError, 0},
	}
	for _, c := range cases {
		t.Run(c.code, func(t *testing.T) {
			if c.code != c.wire {
				t.Fatalf("wire literal drifted: constant = %q, frozen v1 value = %q", c.code, c.wire)
			}
			reply := Errorf(c.status, "tier says no")
			if c.retry > 0 {
				reply.Retry(c.retry)
			}
			if got := StatusOf(reply); got != c.status {
				t.Fatalf("StatusOf = %d, want %d", got, c.status)
			}
			rec := written(reply)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d", rec.Code, c.status)
			}
			eb := decode(t, rec.Body.Bytes())
			if eb.Error.Code != c.wire {
				t.Fatalf("encoded code = %q, want %q", eb.Error.Code, c.wire)
			}

			ae := ParseError(rec.Code, rec.Body.Bytes())
			if ae.Status != c.status || ae.Code != c.code || ae.Message != "tier says no" {
				t.Errorf("round trip mismatch: %+v", ae)
			}
			// The body hint and the Retry-After header must tell the
			// same story: both present with the same value, or both absent.
			header := rec.Header().Get("Retry-After")
			switch {
			case c.retry > 0:
				if header == "" {
					t.Error("retry case lost its Retry-After header")
				}
				secs, err := strconv.ParseInt(header, 10, 64)
				if err != nil {
					t.Fatalf("Retry-After %q is not an integer: %v", header, err)
				}
				if ae.RetryAfterMs != secs*1000 {
					t.Errorf("retry_after_ms = %d, header = %ds: hints disagree", ae.RetryAfterMs, secs)
				}
			default:
				if header != "" || ae.RetryAfterMs != 0 {
					t.Errorf("no-hint case grew a retry hint: header %q, body %d", header, ae.RetryAfterMs)
				}
			}
		})
	}
}
