package jsontext

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestFloatMatchesEncodingJSON: Writer.Float writes the bytes
// encoding/json writes for a float64, at the edges of the exponent
// form (below 1e-6, from 1e21 on), for signed zero, subnormals and the
// extremes, and for random bit patterns and random values of every
// magnitude.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1e-8,
		2.5e-7, 1e20, 1e21, 9.999999999999999e20, -1e21, 1e100, 123456789012345680000,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		2.7066404880045996, -0.22915835851807742, 5e-324, 1.5e-300,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			xs = append(xs, f)
		}
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, x := range xs {
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		var w Writer
		w.Float(x)
		got, err := w.Bytes()
		if err != nil || string(got) != string(want) {
			t.Fatalf("Float(%v) = %s (%v), encoding/json writes %s", x, got, err, want)
		}
	}
	var w Writer
	w.FloatArray(nil)
	w.Raw(",")
	w.FloatArray([]float64{})
	w.Raw(",")
	w.FloatArray([]float64{1e-7, -0.5, 3})
	want, _ := json.Marshal([]any{[]float64(nil), []float64{}, []float64{1e-7, -0.5, 3}})
	if got, _ := w.Bytes(); "["+string(got)+"]" != string(want) {
		t.Fatalf("FloatArray wrote %s, encoding/json %s", got, want)
	}
}

// TestWriterKeepsFirstError: a value JSON cannot carry is the Writer's
// error, the first one kept, as encoding/json refuses it.
func TestWriterKeepsFirstError(t *testing.T) {
	var w Writer
	w.Float(1)
	w.Float(math.NaN())
	w.Float(math.Inf(1))
	if _, err := w.Bytes(); err == nil || err.Error() != "jsontext: NaN is not a JSON number" {
		t.Fatalf("err = %v, want the NaN", err)
	}
	if _, err := json.Marshal(math.Inf(-1)); err == nil {
		t.Fatal("encoding/json wrote -Inf")
	}
}

// TestScannerRawAndEnd: Raw returns one value's bytes, nested ones
// included, and End refuses anything but whitespace after the document
// with ErrTrailing and the Scanner's own error.
func TestScannerRawAndEnd(t *testing.T) {
	errDoc := errors.New("test document")
	s := NewScanner([]byte(` {"a": [1, {"b": null}], "c": "x"} `), errDoc, nil)
	var raw []byte
	err := s.Object("the object", func(key []byte) error {
		var err error
		if string(key) == "a" {
			raw, err = s.Raw()
			return err
		}
		return s.Skip()
	})
	if err != nil || string(raw) != `[1, {"b": null}]` {
		t.Fatalf("Raw = %q, %v", raw, err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	s = NewScanner([]byte(`{} {}`), errDoc, nil)
	if err := s.Skip(); err != nil {
		t.Fatal(err)
	}
	if err := s.End(); !errors.Is(err, ErrTrailing) || !errors.Is(err, errDoc) {
		t.Fatalf("End = %v, want ErrTrailing and the document's error", err)
	}
}
