package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/httpapi"
)

// bodyRuleCases are the two bodies the shared decoder refuses on every
// tier and route: a negative explain count, and a valid body followed
// by junk.
func bodyRuleCases(t *testing.T) map[string][]byte {
	t.Helper()
	ds := testDataset(t, 4, 5)
	return map[string][]byte{
		"negative explain": scoreBody(t, ds, []int{0}, -1),
		"trailing bytes":   append(scoreBody(t, ds, []int{0}, 0), []byte(" }garbage{")...),
	}
}

// wantBadRequest posts body to url and requires a 400 bad_request
// envelope.
func wantBadRequest(t *testing.T, name, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var eb httpapi.ErrorBody
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != httpapi.CodeBadRequest {
		t.Errorf("%s: %d %s, want 400 %s", name, resp.StatusCode, raw, httpapi.CodeBadRequest)
	}
}

// TestScoreBodyRule: a replica's /v1/score refuses both bodies with the
// gate's answer, 400 bad_request.
func TestScoreBodyRule(t *testing.T) {
	ts, _ := jobsStack(t)
	for name, body := range bodyRuleCases(t) {
		wantBadRequest(t, name, ts.URL+"/v1/score?model=ecg", body)
	}
}

// TestJobsBodyRule: a replica's /v1/jobs refuses both bodies with 400
// bad_request; no job is created.
func TestJobsBodyRule(t *testing.T) {
	ts, _ := jobsStack(t)
	for name, body := range bodyRuleCases(t) {
		wantBadRequest(t, name, ts.URL+"/v1/jobs?model=ecg", body)
	}
}

// TestStreamAppendBodyRule: a replica's stream append refuses a valid
// body followed by junk with 400 bad_request, as /v1/score does, and
// appends none of its points; trailing whitespace is accepted.
func TestStreamAppendBodyRule(t *testing.T) {
	ts, mgr, _, _, ds := streamStack(t, StreamOptions{}, 5)
	body := streamAppendBody(t, ds.Samples[0], []int{0, 1, 2})
	wantBadRequest(t, "trailing bytes", ts.URL+"/v1/streams/junk/append", append(body, " }garbage{"...))
	if _, ok := mgr.Get("junk"); ok {
		t.Error("the refused append created its stream")
	}
	resp, err := http.Post(ts.URL+"/v1/streams/spaced/append", "application/json", bytes.NewReader(append(body, " \n\t"...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: %d, want 200", resp.StatusCode)
	}
}
