package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
)

// randomDataset draws a structurally valid dataset with rng-chosen
// shapes, including awkward ones (single point, single parameter).
func randomDataset(rng *rand.Rand) fda.Dataset {
	n := 1 + rng.Intn(6)
	ds := fda.Dataset{Samples: make([]fda.Sample, n)}
	for i := range ds.Samples {
		m := 1 + rng.Intn(12)
		p := 1 + rng.Intn(4)
		s := fda.Sample{Times: make([]float64, m), Values: make([][]float64, p)}
		t := rng.Float64()
		for j := range s.Times {
			s.Times[j] = t
			t += 0.01 + rng.Float64()
		}
		for k := range s.Values {
			s.Values[k] = make([]float64, m)
			for j := range s.Values[k] {
				s.Values[k][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		ds.Samples[i] = s
	}
	return ds
}

func datasetsEqual(a, b fda.Dataset) bool {
	if len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		if len(x.Times) != len(y.Times) || len(x.Values) != len(y.Values) {
			return false
		}
		for j := range x.Times {
			if math.Float64bits(x.Times[j]) != math.Float64bits(y.Times[j]) {
				return false
			}
		}
		for k := range x.Values {
			if len(x.Values[k]) != len(y.Values[k]) {
				return false
			}
			for j := range x.Values[k] {
				if math.Float64bits(x.Values[k][j]) != math.Float64bits(y.Values[k][j]) {
					return false
				}
			}
		}
	}
	return true
}

// TestRoundTripProperty: encode→decode is the bitwise identity on random
// datasets, and the encoded size matches EncodedSize exactly.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ds := randomDataset(rng)
		explain := rng.Intn(4)
		frame := EncodeRequest(Request{Dataset: ds, Explain: explain})
		if len(frame) != EncodedSize(ds) {
			t.Fatalf("trial %d: frame is %d bytes, EncodedSize says %d", trial, len(frame), EncodedSize(ds))
		}
		got, err := DecodeRequest(frame)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.Explain != explain {
			t.Fatalf("trial %d: explain %d != %d", trial, got.Explain, explain)
		}
		if !datasetsEqual(got.Dataset, ds) {
			t.Fatalf("trial %d: dataset did not round-trip", trial)
		}
	}
}

// TestJSONBinaryEquivalence: the binary frame and the dataset-JSON body
// describe the same curves — decoding one and re-encoding through the
// other representation is lossless for every exactly-representable
// value, and the binary frame is less than half the JSON size on the
// repository's own generated traffic.
func TestJSONBinaryEquivalence(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 40, Points: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d.Labels = nil // labels never ride the scoring wire

	var jsonBody bytes.Buffer
	if err := dataset.WriteJSON(&jsonBody, d); err != nil {
		t.Fatal(err)
	}
	viaJSON, err := dataset.ReadJSON(bytes.NewReader(jsonBody.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	viaWire, err := DecodeRequest(EncodeRequest(Request{Dataset: d}))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(viaJSON, viaWire.Dataset) {
		t.Fatal("JSON and binary round trips disagree")
	}
	if ratio := float64(EncodedSize(d)) / float64(jsonBody.Len()); ratio > 0.5 {
		t.Fatalf("binary frame is %.0f%% of JSON, want <= 50%%", 100*ratio)
	}
}

// TestDecodeErrors: every malformed-frame class errors with ErrWire and
// never panics.
func TestDecodeErrors(t *testing.T) {
	ds := fda.Dataset{Samples: []fda.Sample{{
		Times:  []float64{0, 1, 2},
		Values: [][]float64{{1, 2, 3}, {4, 5, 6}},
	}}}
	good := EncodeRequest(Request{Dataset: ds, Explain: 2})

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		frame := mutate(append([]byte(nil), good...))
		if _, err := DecodeRequest(frame); !errors.Is(err, ErrWire) {
			t.Fatalf("%s: err = %v, want ErrWire", name, err)
		}
	}
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("short header", func(b []byte) []byte { return b[:headerSize-1] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("future version", func(b []byte) []byte { b[4] = Version + 1; return b })
	corrupt("dirty reserved", func(b []byte) []byte { b[5] = 1; return b })
	corrupt("truncated mid-column", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xFF) })
	corrupt("sample count lies", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:16], 1<<30)
		return b
	})
	corrupt("points length lies", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[headerSize:], 1<<31)
		return b
	})
	corrupt("params length lies", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[headerSize+4:], 1<<31)
		return b
	})
	corrupt("zero points nonzero params", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[headerSize:], 0)
		return b
	})
}

// TestDecodeOverAllocationGuard: a frame whose prefixes promise huge
// columns must be rejected by arithmetic on the remaining bytes, before
// any column allocation happens. A 64-byte frame claiming 2^31 points
// would otherwise try to allocate 16 GiB.
func TestDecodeOverAllocationGuard(t *testing.T) {
	frame := make([]byte, 0, 64)
	frame = append(frame, magic[:]...)
	frame = append(frame, Version, 0, 0, 0)
	frame = binary.LittleEndian.AppendUint32(frame, 0) // explain
	frame = binary.LittleEndian.AppendUint32(frame, 1) // one sample
	frame = binary.LittleEndian.AppendUint32(frame, 1<<31-1)
	frame = binary.LittleEndian.AppendUint32(frame, 1<<31-1)
	frame = append(frame, make([]byte, 40)...)
	if _, err := DecodeRequest(frame); !errors.Is(err, ErrWire) {
		t.Fatalf("err = %v, want ErrWire", err)
	}
}

// hostileParamsFrame is the minimal 32-byte frame whose sample claims
// m=1, p=0xFFFFFFFF: computing 1+p in uint32 wraps to 0 and would slip
// past the bounds check, reaching a ~96 GiB [][]float64 allocation.
func hostileParamsFrame() []byte {
	frame := append([]byte(nil), magic[:]...)
	frame = append(frame, Version, 0, 0, 0)
	frame = binary.LittleEndian.AppendUint32(frame, 0)          // explain
	frame = binary.LittleEndian.AppendUint32(frame, 1)          // one sample
	frame = binary.LittleEndian.AppendUint32(frame, 1)          // m = 1
	frame = binary.LittleEndian.AppendUint32(frame, 0xFFFFFFFF) // p wraps 1+p in uint32
	return append(frame, make([]byte, 8)...)                    // the single times value
}

// TestDecodeParamsOverflowGuard: the p=0xFFFFFFFF frame must be
// rejected by uint64 arithmetic, not wrap the 1+p term to zero and
// over-allocate (regression for the uint32 overflow in decodeSample).
func TestDecodeParamsOverflowGuard(t *testing.T) {
	if _, err := DecodeRequest(hostileParamsFrame()); !errors.Is(err, ErrWire) {
		t.Fatalf("err = %v, want ErrWire", err)
	}
}

// TestExplainNegativeClamped: a negative explain count encodes as 0, not
// as a 4-billion explanation request.
func TestExplainNegativeClamped(t *testing.T) {
	ds := fda.Dataset{Samples: []fda.Sample{{Times: []float64{0}, Values: [][]float64{{1}}}}}
	got, err := DecodeRequest(EncodeRequest(Request{Dataset: ds, Explain: -3}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Explain != 0 {
		t.Fatalf("explain = %d, want 0", got.Explain)
	}
}

// TestSpecialFloatsSurviveTheWire: NaN and ±Inf are rejected later by
// the serving sanitizer, but the codec itself must carry them bitwise —
// a transport that silently rewrites payloads is untrustworthy.
func TestSpecialFloatsSurviveTheWire(t *testing.T) {
	ds := fda.Dataset{Samples: []fda.Sample{{
		Times:  []float64{0, 1, 2},
		Values: [][]float64{{math.NaN(), math.Inf(1), math.Inf(-1)}},
	}}}
	got, err := DecodeRequest(EncodeRequest(Request{Dataset: ds}))
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(got.Dataset, ds) {
		t.Fatal("special float values did not survive bitwise")
	}
}

// FuzzWireDecode: neither decoder may panic or allocate past the
// frame's own size class, whatever the bytes. Every input goes to both
// the request and the scores decoder; each either fails with ErrWire or
// decodes a frame that re-encodes to the identical bytes (canonical
// encoding).
func FuzzWireDecode(f *testing.F) {
	ds := fda.Dataset{Samples: []fda.Sample{
		{Times: []float64{0, 0.5, 1}, Values: [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{Times: []float64{2}, Values: [][]float64{{7}}},
	}}
	f.Add(EncodeRequest(Request{Dataset: ds, Explain: 1}))
	f.Add([]byte("MFW\x00"))
	f.Add([]byte(`{"samples":[]}`))
	f.Add(make([]byte, headerSize))
	f.Add(hostileParamsFrame())
	scores := EncodeScores(Scores{Start: 5, Values: []float64{0.25, math.NaN(), -1}})
	f.Add(scores)
	lying := append([]byte(nil), scores...)
	binary.LittleEndian.PutUint32(lying[16:], 4) // count claims one value more than it carries
	f.Add(lying)
	overflow := append([]byte(nil), scores...)
	binary.LittleEndian.PutUint64(overflow[8:], math.MaxInt64-1) // start + count passes MaxInt64
	f.Add(overflow)
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("request: non-ErrWire failure: %v", err)
			}
		} else if re := EncodeRequest(req); !bytes.Equal(re, data) {
			t.Fatalf("request decode/encode is not the identity on a valid %d-byte frame", len(data))
		}
		if s, err := DecodeScores(data); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("scores: non-ErrWire failure: %v", err)
			}
		} else if re := EncodeScores(s); !bytes.Equal(re, data) {
			t.Fatalf("scores decode/encode is not the identity on a valid %d-byte frame", len(data))
		}
	})
}

// TestReaderCount: count admits a length exactly when count × elemSize
// fits the bytes left after its prefix, and consumes only the prefix.
func TestReaderCount(t *testing.T) {
	prefixed := func(n uint32, left int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, left)...)
	}
	cases := []struct {
		name     string
		frame    []byte
		elemSize uint64
		want     int // -1: refused
	}{
		{"exact fit", prefixed(3, 24), 8, 3},
		{"one byte short", prefixed(3, 23), 8, -1},
		{"count 0xFFFFFFFF", prefixed(0xFFFFFFFF, 64), 8, -1},
		{"count 0xFFFFFFFF of one-byte elements", prefixed(0xFFFFFFFF, 64), 1, -1},
		{"zero elemSize, count 0", prefixed(0, 8), 0, 0},
		{"zero elemSize, count 1", prefixed(1, 8), 0, -1},
		{"no room for the prefix", []byte{1, 0, 0}, 8, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := reader{rest: c.frame}
			n, err := r.count(c.elemSize)
			if c.want < 0 {
				if !errors.Is(err, ErrWire) {
					t.Fatalf("count = %d, %v; want ErrWire", n, err)
				}
				return
			}
			if err != nil || n != c.want {
				t.Fatalf("count = %d, %v; want %d", n, err, c.want)
			}
			if len(r.rest) != len(c.frame)-4 {
				t.Fatalf("%d bytes left after the prefix, want %d", len(r.rest), len(c.frame)-4)
			}
		})
	}
}

// TestDecodeAllocations pins what a decode allocates: the sample slice
// plus, per sample, its times, its value-column slice and each column
// (1 + n(2 + p) for n curves of p parameters), and the values slice of a
// scores frame. Nothing is allocated on the success path beyond what
// the decoded value holds.
func TestDecodeAllocations(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(decode func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{1, 4} {
		frame := EncodeRequest(Request{Dataset: fda.Dataset{Samples: d.Samples[:n]}})
		want := 1 + n*(2+len(d.Samples[0].Values))
		got := allocs(func() error { _, err := DecodeRequest(frame); return err })
		if got != float64(want) {
			t.Errorf("%d Fig. 3 curves: %.0f allocations per DecodeRequest, want %d", n, got, want)
		}
	}
	scores := EncodeScores(Scores{Start: 256, Values: make([]float64, 256)})
	if got := allocs(func() error { _, err := DecodeScores(scores); return err }); got != 1 {
		t.Errorf("%.0f allocations per DecodeScores, want 1", got)
	}
}

// TestEncodedSizeMatchesJSONBaseline pins the byte-accounting helpers
// used by mfodload's report: the JSON size is measured by actually
// marshalling, so keep the comparison shape compiling here.
func TestEncodedSizeMatchesJSONBaseline(t *testing.T) {
	ds := fda.Dataset{Samples: []fda.Sample{{Times: []float64{0, 1}, Values: [][]float64{{1.5, -2.25}}}}}
	j, err := json.Marshal(map[string]any{"samples": []map[string]any{{
		"times": ds.Samples[0].Times, "values": ds.Samples[0].Values,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if EncodedSize(ds) <= 0 || len(j) <= 0 {
		t.Fatal("size helpers must be positive")
	}
}
