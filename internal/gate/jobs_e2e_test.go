package gate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/fda"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// tile repeats d's samples until the dataset holds n curves — scoring
// is per-sample, so repeats keep the synchronous reference cheap while
// still exercising many chunks.
func tile(d fda.Dataset, n int) fda.Dataset {
	out := fda.Dataset{Samples: make([]fda.Sample, n)}
	for i := range out.Samples {
		out.Samples[i] = d.Samples[i%len(d.Samples)]
	}
	return out
}

// TestGateJobsScatterGatherBitwise: a bulk job submitted to the gate is
// chunked, sharded across the fleet by model#chunk on the ring, and the
// merged stream is bitwise-identical to one synchronous score of the
// same curves against a single replica.
func TestGateJobsScatterGatherBitwise(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	bulk := tile(d, 240)

	// Synchronous reference straight off one replica — no gate, no
	// chunking, one request.
	ref := postScores(t, h.replicas["r1"].URL, "m0", wire.ContentType,
		wire.EncodeRequest(wire.Request{Dataset: bulk}))
	if len(ref) != 240 {
		t.Fatalf("reference scored %d/240", len(ref))
	}

	for _, codec := range []string{"wire", "json"} {
		c := client.New(client.Options{BaseURL: h.base, Codec: codec, Backoff: 20 * time.Millisecond})
		job, err := c.SubmitJob(context.Background(), "m0", bulk, 16)
		if err != nil {
			t.Fatalf("%s: submit: %v", codec, err)
		}
		if job.Samples != 240 || job.Chunk != 16 {
			t.Fatalf("%s: handle %+v", codec, job)
		}
		scores, end, err := job.Collect(context.Background())
		if err != nil {
			t.Fatalf("%s: collect: %v", codec, err)
		}
		if end.State != jobs.StateDone || len(scores) != 240 {
			t.Fatalf("%s: end=%+v n=%d", codec, end, len(scores))
		}
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: sample %d diverged: job=%x sync=%x",
					codec, i, math.Float64bits(scores[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

// TestGateJobsChaos: a replica dies and the serving tier sheds load
// WHILE a bulk job is in flight; the job must still complete with a
// bitwise-correct, duplicate-free, gap-free result set — chunk retries
// and ring failover absorb the damage, the contiguous-frontier merge
// guarantees order.
func TestGateJobsChaos(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	bulk := tile(d, 320)

	ref := postScores(t, h.replicas["r1"].URL, "m0", wire.ContentType,
		wire.EncodeRequest(wire.Request{Dataset: bulk}))

	c := client.New(client.Options{BaseURL: h.base, Codec: "wire", Backoff: 20 * time.Millisecond})
	job, err := c.SubmitJob(context.Background(), "m0", bulk, 16)
	if err != nil {
		t.Fatal(err)
	}

	// The chaos trigger fires once the first results arrive, so the kill
	// is genuinely mid-job: r3 goes away hard AND the surviving replicas
	// shed the next few chunk attempts with honest 429s.
	chaos := false
	scores := make([]float64, 0, 320)
	seen := make(map[int]bool)
	end, err := streamRuns(t, job, func(start int, run []float64) {
		if !chaos {
			chaos = true
			h.replicas["r3"].CloseClientConnections()
			h.replicas["r3"].Close()
			faultinject.Arm(serve.FaultShed, faultinject.Fault{
				Err:   faultinject.Injected(serve.FaultShed),
				Times: 6,
			})
		}
		for i := range run {
			if seen[start+i] {
				t.Fatalf("sample %d delivered twice", start+i)
			}
			seen[start+i] = true
		}
		scores = append(scores, run...)
	})
	faultinject.Reset()
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if end.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}
	if len(scores) != 320 {
		t.Fatalf("collected %d/320 scores", len(scores))
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("sample %d diverged after chaos: job=%x sync=%x",
				i, math.Float64bits(scores[i]), math.Float64bits(ref[i]))
		}
	}
}

// streamRuns adapts client streaming for the chaos test so the callback
// can use t directly without returning errors.
func streamRuns(t *testing.T, job *client.Job, fn func(start int, run []float64)) (*jobs.ResultEnd, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return job.Stream(ctx, 0, func(start int, run []float64) error {
		fn(start, run)
		return nil
	})
}

// TestGateJobsSurviveReplicaLoss is the inverse ordering: the replica
// is already gone before submission, so every chunk it owned must fail
// over on the first attempt.
func TestGateJobsSurviveReplicaLoss(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	bulk := tile(d, 160)

	ref := postScores(t, h.replicas["r1"].URL, "m0", wire.ContentType,
		wire.EncodeRequest(wire.Request{Dataset: bulk}))

	h.replicas["r2"].CloseClientConnections()
	h.replicas["r2"].Close()

	c := client.New(client.Options{BaseURL: h.base, Codec: "wire", Backoff: 20 * time.Millisecond})
	job, err := c.SubmitJob(context.Background(), "m0", bulk, 16)
	if err != nil {
		t.Fatal(err)
	}
	scores, end, err := job.Collect(context.Background())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if end.State != jobs.StateDone || len(scores) != 160 {
		t.Fatalf("end=%+v n=%d", end, len(scores))
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("sample %d diverged: job=%x sync=%x",
				i, math.Float64bits(scores[i]), math.Float64bits(ref[i]))
		}
	}
}

// TestGateV1Envelope: every 4xx the gate emits — locally or relayed
// from a replica — carries the shared v1 error envelope.
func TestGateV1Envelope(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	body := jsonScoreBody(t, d, []int{0})

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		status int
		code   string
		allow  string // the Allow header a 405 must carry
	}{
		{"score without model", "POST", "/v1/score", body, 400, httpapi.CodeBadRequest, ""},
		{"score wrong method", "GET", "/v1/score?model=m0", nil, 405, httpapi.CodeMethodNotAllowed, "POST"},
		{"relayed unknown model", "POST", "/v1/score?model=zz-unknown", body, 404, httpapi.CodeNotFound, ""},
		// The retired colon-verb alias paths answer what a replica does:
		// a model-info path that allows GET only, naming no model.
		{"alias unknown action", "POST", "/v1/models/m0:frobnicate", body, 405, httpapi.CodeMethodNotAllowed, "GET"},
		{"alias wrong method", "GET", "/v1/models/m0:score", nil, 404, httpapi.CodeNotFound, ""},
		{"job submit wrong method", "GET", "/v1/jobs", nil, 405, httpapi.CodeMethodNotAllowed, "POST"},
		{"unknown job", "GET", "/v1/jobs/j-nope", nil, 404, httpapi.CodeNotFound, ""},
		{"unknown route", "GET", "/v2/nope", nil, 404, httpapi.CodeNotFound, ""},
		// A method that is only a substring of an allowed one is not
		// allowed: the gate answers the 405 itself, Allow header included,
		// and never proxies it.
		{"stream method substring", "ET", "/v1/streams/s1", nil, 405, httpapi.CodeMethodNotAllowed, "GET, DELETE"},
		{"stream append method substring", "P", "/v1/streams/s1/append", nil, 405, httpapi.CodeMethodNotAllowed, "POST"},
		{"stream list trailing slash wrong method", "POST", "/v1/streams/", nil, 405, httpapi.CodeMethodNotAllowed, "GET"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, h.base+c.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.status {
				t.Fatalf("%s %s = %d, want %d (body %s)", c.method, c.path, resp.StatusCode, c.status, raw)
			}
			var eb httpapi.ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("%s %s: not a v1 envelope (err %v, body %s)", c.method, c.path, err, raw)
			}
			if eb.Error.Code != c.code {
				t.Fatalf("%s %s: code %q, want %q", c.method, c.path, eb.Error.Code, c.code)
			}
			if got := resp.Header.Get("Allow"); got != c.allow {
				t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
			}
		})
	}
}

// TestGateCodecHeader: the gate relays the replica's X-Mfod-Codec
// answer, so clients can see which codec actually scored their curves —
// a JSON client behind a transcoding gate sees "wire".
func TestGateCodecHeader(t *testing.T) {
	modelPath, d := fitModelFile(t)
	h := bootGate(t, modelPath)
	idx := []int{0, 1, 2}

	post := func(contentType string, body []byte) string {
		t.Helper()
		resp, err := http.Post(h.base+"/v1/score?model=m0", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Mfod-Codec")
	}
	if got := post(wire.ContentType, wireScoreBody(t, d, idx)); got != "wire" {
		t.Fatalf("wire body scored via codec %q, want wire", got)
	}
	// JSON in, wire upstream: the default transcoding gate must report
	// the codec the replica actually decoded.
	if got := post("application/json", jsonScoreBody(t, d, idx)); got != "wire" {
		t.Fatalf("JSON body behind transcoding gate scored via codec %q, want wire", got)
	}
}
