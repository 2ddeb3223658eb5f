package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/wire"
)

// bootAPI serves api on a route table whose body cap is maxBody.
func bootAPI(t *testing.T, opt Options, api *API, maxBody int64) *httptest.Server {
	t.Helper()
	m, err := NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	api.Manager = m
	table := httpapi.NewTable(maxBody, nil, nil, nil)
	api.Mount(table)
	srv := httptest.NewServer(table.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func jsonSubmitBody(t *testing.T, model string, ds fda.Dataset, chunk int) *bytes.Reader {
	t.Helper()
	b, err := wire.EncodeJSON(wire.Body{Request: wire.Request{Dataset: ds}, Model: model, Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func submitJob(t *testing.T, base, model string, ds fda.Dataset, asWire bool) submitResponse {
	t.Helper()
	var resp *http.Response
	var err error
	if asWire {
		body := wire.EncodeRequest(wire.Request{Dataset: ds})
		resp, err = http.Post(base+"/v1/jobs?model="+model+"&chunk=4", wire.ContentType, bytes.NewReader(body))
	} else {
		resp, err = http.Post(base+"/v1/jobs", "application/json", jsonSubmitBody(t, model, ds, 4))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sr submitResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("submit body %q: %v", raw, err)
	}
	return sr
}

// streamResults reads the NDJSON stream from cursor, returning the
// collected (start, scores) runs and the terminal record.
func streamResults(t *testing.T, url string) (map[int][]float64, ResultEnd) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("results: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	runs := map[int][]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		run, end, err := ParseResultLine(sc.Bytes())
		if err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		if end != nil {
			return runs, *end
		}
		runs[run.Start] = run.Scores
	}
	t.Fatalf("stream ended without a terminal record (read err %v)", sc.Err())
	return nil, ResultEnd{}
}

func TestHTTPSubmitPollStream(t *testing.T) {
	for _, codec := range []string{"json", "wire"} {
		t.Run(codec, func(t *testing.T) {
			srv := bootAPI(t, Options{Runner: &echoRunner{}}, &API{}, 1<<20)
			ds := testDataset(18)
			sr := submitJob(t, srv.URL, "m", ds, codec == "wire")
			if sr.Samples != 18 || sr.Chunk != 4 {
				t.Fatalf("submit response %+v", sr)
			}

			runs, end := streamResults(t, srv.URL+sr.ResultsURL)
			if !end.Done || end.State != StateDone || end.Samples != 18 {
				t.Fatalf("terminal record %+v", end)
			}
			got := make([]float64, 0, 18)
			for start := 0; start < 18; start = start + len(runs[start]) {
				run, ok := runs[start]
				if !ok || len(run) == 0 {
					t.Fatalf("no run starting at %d (runs %v)", start, runs)
				}
				got = append(got, run...)
			}
			for i, v := range got {
				if v != float64(i)*2 {
					t.Fatalf("score %d = %v", i, v)
				}
			}

			// Poll endpoint agrees.
			resp, err := http.Get(srv.URL + sr.StatusURL)
			if err != nil {
				t.Fatal(err)
			}
			var st Status
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State != StateDone || st.Scored != 18 {
				t.Fatalf("status %+v", st)
			}
		})
	}
}

func TestHTTPResumeWithCursor(t *testing.T) {
	srv := bootAPI(t, Options{Runner: &echoRunner{}}, &API{}, 1<<20)
	sr := submitJob(t, srv.URL, "m", testDataset(12), false)

	// Wait for completion, then read the tail only: cursor=8 must yield
	// exactly samples 8..11 once, no duplicates of the prefix.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := http.Get(srv.URL + sr.StatusURL)
		var st Status
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	runs, end := streamResults(t, srv.URL+sr.ResultsURL+"?cursor=8")
	if !end.Done {
		t.Fatalf("terminal %+v", end)
	}
	if len(runs) != 1 || len(runs[8]) != 4 {
		t.Fatalf("resumed runs %v, want one 4-score run at 8", runs)
	}
	for i, v := range runs[8] {
		if v != float64(8+i)*2 {
			t.Fatalf("resumed score %d = %v", 8+i, v)
		}
	}
}

func TestHTTPFailedJobStream(t *testing.T) {
	srv := bootAPI(t, Options{Runner: &echoRunner{fatalOn: 1}, Backoff: time.Millisecond}, &API{}, 1<<20)
	sr := submitJob(t, srv.URL, "m", testDataset(8), false)
	_, end := streamResults(t, srv.URL+sr.ResultsURL)
	if !end.Done || end.State != StateFailed || end.Error == "" {
		t.Fatalf("terminal record %+v, want failed with error", end)
	}
}

func TestHTTPCancel(t *testing.T) {
	srv := bootAPI(t, Options{Runner: &echoRunner{delay: 20 * time.Millisecond}, ChunkSize: 1, Tokens: 1}, &API{}, 1<<20)
	sr := submitJob(t, srv.URL, "m", testDataset(50), false)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+sr.StatusURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	_, end := streamResults(t, srv.URL+sr.ResultsURL)
	if end.State != StateCancelled {
		t.Fatalf("terminal state %q", end.State)
	}
}

// TestHTTPErrors locks every jobs-API error path to the v1 envelope.
func TestHTTPErrors(t *testing.T) {
	srv := bootAPI(t, Options{Runner: &echoRunner{}, MaxJobs: 1},
		&API{
			Validate: func(ds fda.Dataset) error {
				if len(ds.Samples) > 4 {
					return errors.New("too many samples")
				}
				return nil
			},
			CheckModel: func(name string) error {
				if name != "m" {
					return fmt.Errorf("unknown %q", name)
				}
				return nil
			},
		}, 512)

	post := func(path, ct, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	checkEnvelope := func(t *testing.T, resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d (%s)", resp.StatusCode, status, raw)
		}
		ae := httpapi.ParseError(resp.StatusCode, raw)
		if ae.Code != code {
			t.Fatalf("code %q, want %q (%s)", ae.Code, code, raw)
		}
	}

	t.Run("bad json", func(t *testing.T) {
		checkEnvelope(t, post("/v1/jobs", "application/json", "{nope"),
			http.StatusBadRequest, httpapi.CodeBadRequest)
	})
	t.Run("bad wire", func(t *testing.T) {
		checkEnvelope(t, post("/v1/jobs?model=m", wire.ContentType, "junk"),
			http.StatusBadRequest, httpapi.CodeBadRequest)
	})
	t.Run("missing model", func(t *testing.T) {
		checkEnvelope(t, post("/v1/jobs", "application/json", `{"samples":[{"times":[0],"values":[[1]]}]}`),
			http.StatusBadRequest, httpapi.CodeBadRequest)
	})
	t.Run("unknown model", func(t *testing.T) {
		checkEnvelope(t, post("/v1/jobs", "application/json", `{"model":"ghost","samples":[{"times":[0],"values":[[1]]}]}`),
			http.StatusNotFound, httpapi.CodeNotFound)
	})
	t.Run("validation", func(t *testing.T) {
		var b bytes.Buffer
		b.WriteString(`{"model":"m","samples":[`)
		for i := 0; i < 6; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"times":[0],"values":[[1]]}`)
		}
		b.WriteString(`]}`)
		checkEnvelope(t, post("/v1/jobs", "application/json", b.String()),
			http.StatusBadRequest, httpapi.CodeBadRequest)
	})
	t.Run("unknown job", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/v1/jobs/j999999")
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, resp, http.StatusNotFound, httpapi.CodeNotFound)
	})
	t.Run("bad cursor", func(t *testing.T) {
		sr := submitJob(t, srv.URL, "m", testDataset(2), false)
		resp, err := http.Get(srv.URL + sr.ResultsURL + "?cursor=banana")
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, resp, http.StatusBadRequest, httpapi.CodeBadRequest)
	})
	t.Run("body too large", func(t *testing.T) {
		big := strings.Repeat("x", 600)
		checkEnvelope(t, post("/v1/jobs", "application/json", `{"model":"`+big+`"}`),
			http.StatusRequestEntityTooLarge, httpapi.CodeTooLarge)
	})
}
