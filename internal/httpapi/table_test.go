package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

type observed struct {
	model string
	code  int
}

// observedTable is a table whose log goes to buf and whose record calls
// are appended to recs; it knows the models ecg and m7.
func observedTable(maxBody int64, buf *bytes.Buffer, recs *[]observed) *Table {
	log := slog.New(slog.NewJSONHandler(buf, nil))
	return NewTable(maxBody, log, func(model string, code int, seconds float64) {
		if seconds < 0 {
			panic("negative latency")
		}
		*recs = append(*recs, observed{model, code})
	}, func(model string) bool { return model == "ecg" || model == "m7" })
}

func do(t *testing.T, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// TestObserveLabelsAndCodes: every /v1 request is recorded and logged
// once under the label rule — ?model= when the tier knows the model,
// else the route's label, "(other)" for an unknown path, even under a
// route's path root — with the status the table wrote; probes and the
// scrape pass unseen.
func TestObserveLabelsAndCodes(t *testing.T) {
	var buf bytes.Buffer
	var recs []observed
	tb := observedTable(1<<10, &buf, &recs)
	tb.Probes(func() error { return nil }, func(w io.Writer) { io.WriteString(w, "page\n") })
	tb.Handle(Score, func(*http.Request, []byte) Reply { return Errorf(http.StatusTeapot, "short and stout") })
	tb.Handle(JobStatus, func(*http.Request, []byte) Reply { return JSON(struct{}{}) })
	tb.Handle(Topology, func(*http.Request, []byte) Reply { return JSON(struct{}{}) })
	tb.Handle(StreamScore, func(*http.Request, []byte) Reply { return JSON(struct{}{}) })
	h := tb.Handler()

	cases := []struct {
		method, target string
		want           observed
	}{
		{"POST", "/v1/score?model=ecg", observed{"ecg", http.StatusTeapot}},
		{"POST", "/v1/score", observed{"(other)", http.StatusTeapot}},
		{"GET", "/v1/score?model=ecg", observed{"ecg", http.StatusMethodNotAllowed}},
		{"GET", "/v1/jobs/j1", observed{"(jobs)", http.StatusOK}},
		{"GET", "/v1/jobs/j1?model=m7", observed{"m7", http.StatusOK}},
		{"POST", "/v1/score?model=ghost", observed{"(other)", http.StatusTeapot}},
		{"GET", "/v1/jobs/j1?model=ghost", observed{"(jobs)", http.StatusOK}},
		{"GET", "/v1/score?model=Ecg", observed{"(other)", http.StatusMethodNotAllowed}},
		{"PUT", "/v1/jobs/j1", observed{"(jobs)", http.StatusMethodNotAllowed}},
		{"GET", "/v1/topology", observed{"(topology)", http.StatusOK}},
		{"GET", "/v1/streams/s1/score", observed{"(stream)", http.StatusOK}},
		{"GET", "/v1/streams/s1/a/b", observed{"(other)", http.StatusNotFound}},
		{"GET", "/v1/models/ecg", observed{"(other)", http.StatusNotFound}},
		{"GET", "/v1/modelsx", observed{"(other)", http.StatusNotFound}},
		{"GET", "/v1/no-such-route-42", observed{"(other)", http.StatusNotFound}},
	}
	for _, c := range cases {
		if rec := do(t, h, c.method, c.target, nil); rec.Code != c.want.code {
			t.Errorf("%s %s answered %d, want %d", c.method, c.target, rec.Code, c.want.code)
		}
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v2/x", "/v1"} {
		do(t, h, "GET", path, nil)
	}
	if len(recs) != len(cases) {
		t.Fatalf("%d records for %d /v1 requests: %v", len(recs), len(cases), recs)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("%d log lines for %d /v1 requests:\n%s", len(lines), len(cases), buf.String())
	}
	for i, c := range cases {
		if recs[i] != c.want {
			t.Errorf("%s %s recorded %+v, want %+v", c.method, c.target, recs[i], c.want)
		}
		var line struct {
			Msg, Method, Path, Model string
			Code                     int
			DurMs                    *float64
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatal(err)
		}
		path, _, _ := strings.Cut(c.target, "?")
		if line.Msg != "request" || line.Method != c.method || line.Path != path ||
			line.Model != c.want.model || line.Code != c.want.code || line.DurMs == nil {
			t.Errorf("log line %s, want %s %s model=%s code=%d with durMs", lines[i], c.method, path, c.want.model, c.want.code)
		}
	}
}

// TestObserveKeepsFlush: a Lines reply sends its status before the
// first line and flushes each line as it is emitted.
func TestObserveKeepsFlush(t *testing.T) {
	release := make(chan struct{})
	tb := NewTable(1<<10, nil, nil, nil)
	tb.Handle(StreamScore, func(*http.Request, []byte) Reply {
		return Lines(func(emit func(any) error) {
			for i := 0; i < 2; i++ {
				<-release
				if emit(map[string]int{"seq": i}) != nil {
					return
				}
			}
		})
	})
	ts := httptest.NewServer(tb.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/streams/s/score?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != NDJSONContentType {
		t.Fatalf("watch answered %d %q before its first line", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		release <- struct{}{}
		if !sc.Scan() || sc.Text() != fmt.Sprintf(`{"seq":%d}`, i) {
			t.Fatalf("line %d: %q, %v", i, sc.Text(), sc.Err())
		}
	}
}

// TestTableDerivesMethodNotAllowed: each attached pattern gets a 405
// twin whose Allow header lists the methods attached to it, in attach
// order — the trailing-slash list included — and the twin never calls
// a handler or reads the body.
func TestTableDerivesMethodNotAllowed(t *testing.T) {
	called := 0
	h := func(*http.Request, []byte) Reply { called++; return JSON(struct{}{}) }
	tb := NewTable(8, nil, nil, nil)
	for _, rt := range []Route{StreamStatus, StreamDelete, StreamList, StreamListSlash, JobResults} {
		tb.Handle(rt, h)
	}
	mux := tb.Handler()
	for _, c := range []struct{ method, path, allow string }{
		{"POST", "/v1/streams/s1", "GET, DELETE"},
		{"ET", "/v1/streams/s1", "GET, DELETE"},
		{"POST", "/v1/streams", "GET"},
		{"POST", "/v1/streams/", "GET"},
		{"PUT", "/v1/jobs/j1/results", "GET"},
	} {
		rec := do(t, mux, c.method, c.path, []byte("a body well past the cap"))
		eb := decode(t, rec.Body.Bytes())
		if rec.Code != http.StatusMethodNotAllowed || eb.Error.Code != CodeMethodNotAllowed || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s = %d %s Allow %q, want 405 Allow %q", c.method, c.path, rec.Code, rec.Body, rec.Header().Get("Allow"), c.allow)
		}
	}
	if called != 0 {
		t.Fatalf("a 405 called a handler %d times", called)
	}
	if rec := do(t, mux, "GET", "/v1/streams/", nil); rec.Code != http.StatusOK || called != 1 {
		t.Fatalf("GET /v1/streams/ = %d, handler called %d times", rec.Code, called)
	}
}

// TestTableBodyCap: a body past the tier's cap answers 413
// payload_too_large and a body that ends short of its declared length
// 400 bad_request, neither reaching the handler; a body at the cap
// reaches it whole, whether it declares its length or is chunked.
func TestTableBodyCap(t *testing.T) {
	var got []byte
	tb := NewTable(16, nil, nil, nil)
	tb.Handle(JobSubmit, func(_ *http.Request, body []byte) Reply { got = body; return Accepted("/v1/jobs/j1", struct{}{}) })
	h := tb.Handler()
	for _, c := range []struct {
		name     string
		sent     int
		declared int64 // the Content-Length; -1 is a chunked body
		code     int
		errCode  string
	}{
		{"17 declared bytes", 17, 17, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"16 declared bytes", 16, 16, http.StatusAccepted, ""},
		{"17 chunked bytes", 17, -1, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"16 chunked bytes", 16, -1, http.StatusAccepted, ""},
		{"10 of 16 declared bytes", 10, 16, http.StatusBadRequest, CodeBadRequest},
	} {
		got = nil
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(bytes.Repeat([]byte("x"), c.sent)))
		req.ContentLength = c.declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if c.errCode != "" {
			if eb := decode(t, rec.Body.Bytes()); rec.Code != c.code || eb.Error.Code != c.errCode || got != nil {
				t.Errorf("%s under a 16-byte cap: %d %s, handler saw %q; want %d %s", c.name, rec.Code, rec.Body, got, c.code, c.errCode)
			}
			continue
		}
		if rec.Code != c.code || rec.Header().Get("Location") != "/v1/jobs/j1" || len(got) != c.sent {
			t.Errorf("%s under a 16-byte cap: %d Location %q, handler saw %d bytes", c.name, rec.Code, rec.Header().Get("Location"), len(got))
		}
	}
}

// TestTableBodyReadAllocations: reading a 4 MiB body that declares its
// length allocates less than 2.2 times the body, and so does a body 16
// bytes longer, the wire frame of a 2048-curve Fig. 3 job. io.ReadAll's
// small steps allocate about five times either.
func TestTableBodyReadAllocations(t *testing.T) {
	var got int
	tb := NewTable(32<<20, nil, nil, nil)
	tb.Handle(JobSubmit, func(_ *http.Request, body []byte) Reply { got = len(body); return Accepted("/v1/jobs/j1", struct{}{}) })
	h := tb.Handler()
	for _, size := range []int{4 << 20, 4<<20 + 16} {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(make([]byte, size)))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusAccepted || got != size {
			t.Fatalf("a %d-byte body: %d, handler saw %d bytes", size, rec.Code, got)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		ratio := float64(alloc) / float64(size)
		if ratio >= 2.2 {
			t.Fatalf("reading a %d-byte body allocated %d bytes, %.2f times the body; want under 2.2", size, alloc, ratio)
		}
		t.Logf("reading a %d-byte body allocated %d bytes, %.2f times the body", size, alloc, ratio)
	}
}

// TestReadDeclared: a declared body comes back byte for byte whether
// its reader hands out one byte at a time, whole buffers, or its last
// bytes together with io.EOF; one that ends short of its length is
// io.ErrUnexpectedEOF, and a read error is returned as it is.
func TestReadDeclared(t *testing.T) {
	for _, n := range []int{1, firstRead - 1, firstRead, firstRead + 1, 3*firstRead + 5, 16*firstRead + 16} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(body),
			"one byte": iotest.OneByteReader(bytes.NewReader(body)),
			"data+EOF": iotest.DataErrReader(bytes.NewReader(body)),
		} {
			got, err := readDeclared(r, int64(n))
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d bytes, %s: %d bytes back, %v", n, name, len(got), err)
			}
		}
		if _, err := readDeclared(bytes.NewReader(body), int64(n)+1); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d of %d declared bytes: %v, want io.ErrUnexpectedEOF", n, n+1, err)
		}
	}
	if _, err := readDeclared(iotest.TimeoutReader(bytes.NewReader(make([]byte, 2*firstRead))), 2*firstRead); !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("a failing read: %v, want %v", err, iotest.ErrTimeout)
	}
}

// TestProbes: /healthz is always ok, /readyz answers the readiness
// check's error as a 503 envelope, /metrics serves the page, and a
// wrong method on a probe gets the derived 405.
func TestProbes(t *testing.T) {
	var notReady error
	tb := NewTable(1<<10, nil, nil, nil)
	tb.Probes(func() error { return notReady }, func(w io.Writer) { io.WriteString(w, "mfod_x 1\n") })
	h := tb.Handler()
	if rec := do(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/readyz", nil); rec.Code != http.StatusOK || rec.Body.String() != "ready\n" {
		t.Errorf("/readyz = %d %q", rec.Code, rec.Body)
	}
	notReady = errors.New("draining")
	rec := do(t, h, "GET", "/readyz", nil)
	if eb := decode(t, rec.Body.Bytes()); rec.Code != http.StatusServiceUnavailable || eb.Error.Message != "draining" {
		t.Errorf("draining /readyz = %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/metrics", nil)
	if rec.Body.String() != "mfod_x 1\n" || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Errorf("/metrics = %q %q", rec.Header().Get("Content-Type"), rec.Body)
	}
	if rec := do(t, h, "POST", "/healthz", nil); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" {
		t.Errorf("POST /healthz = %d Allow %q, want 405 Allow GET", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestRelay: a relayed answer keeps its status and the relayed headers;
// a JSON body is copied unflushed, so it keeps its Content-Length,
// while an NDJSON body is flushed line by line; done runs after the
// copy.
func TestRelay(t *testing.T) {
	next := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/lines" {
			w.Header().Set("Content-Type", NDJSONContentType)
			w.(http.Flusher).Flush()
			for i := 0; i < 2; i++ {
				<-next
				fmt.Fprintf(w, "{\"seq\":%d}\n", i)
				w.(http.Flusher).Flush()
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(CodecHeader, "wire")
		w.Header().Set("Retry-After", "3")
		w.Header().Set("X-Other", "dropped")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"overloaded","message":"m"}}`)
	}))
	defer upstream.Close()
	done := make(chan string, 2)
	tb := NewTable(1<<10, nil, nil, nil)
	tb.Handle(StreamScore, func(r *http.Request, _ []byte) Reply {
		resp, err := http.Get(upstream.URL + "/" + r.PathValue("id"))
		if err != nil {
			return Errorf(http.StatusBadGateway, "%v", err)
		}
		return Relay(resp, func() { done <- r.PathValue("id") })
	})
	front := httptest.NewServer(tb.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/streams/json/score")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.ContentLength != int64(len(raw)) ||
		resp.Header.Get(CodecHeader) != "wire" || resp.Header.Get("Retry-After") != "3" || resp.Header.Get("X-Other") != "" {
		t.Fatalf("relayed JSON: %d, Content-Length %d for %d bytes, headers %v", resp.StatusCode, resp.ContentLength, len(raw), resp.Header)
	}
	if got := <-done; got != "json" {
		t.Fatalf("done ran for %q", got)
	}

	resp, err = http.Get(front.URL + "/v1/streams/lines/score")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		next <- struct{}{}
		if !sc.Scan() || sc.Text() != fmt.Sprintf(`{"seq":%d}`, i) {
			t.Fatalf("relayed line %d: %q, %v", i, sc.Text(), sc.Err())
		}
	}
	select {
	case got := <-done:
		if got != "lines" {
			t.Fatalf("done ran for %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("done never ran after the NDJSON relay")
	}
}
