package ocsvm

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
)

func TestModelJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := cloud(rng, 60, 2, 1)
	m := fit(t, Options{Nu: 0.15}, x)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Model)
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want, err := m.Score(x[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Score(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("score[%d] = %g after round-trip, want %g", i, got, want)
		}
	}
}

func TestModelJSONRoundTripAllKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := cloud(rng, 40, 2, 1)
	for _, k := range []Kernel{RBF{Gamma: 0.7}, Linear{}, Poly{Degree: 2, Gamma: 0.5, Coef0: 1}} {
		m := fit(t, Options{Nu: 0.2, Kernel: k}, x)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		restored := new(Model)
		if err := json.Unmarshal(data, restored); err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		want, _ := m.Score(x[0])
		got, _ := restored.Score(x[0])
		if got != want {
			t.Fatalf("%s: %g != %g after round-trip", k.Name(), got, want)
		}
	}
}

type customKernel struct{}

func (customKernel) Eval(x, y []float64) float64 { return 0 }
func (customKernel) Name() string                { return "custom" }

func TestModelMarshalCustomKernelFails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := cloud(rng, 20, 2, 1)
	m := fit(t, Options{Nu: 0.2, Kernel: RBF{Gamma: 1}}, x)
	m.kernel = customKernel{}
	if _, err := json.Marshal(m); !errors.Is(err, ErrOptions) {
		t.Fatalf("err = %v want ErrOptions", err)
	}
}

func TestModelUnmarshalRejectsGarbage(t *testing.T) {
	m := new(Model)
	if err := json.Unmarshal([]byte(`{"dim":0}`), m); !errors.Is(err, ErrOptions) {
		t.Fatal("incomplete model must fail")
	}
	if err := json.Unmarshal([]byte(`{"dim":2,"support":[[1,2]],"alpha":[1],"kernel":{"name":"bogus"}}`), m); !errors.Is(err, ErrOptions) {
		t.Fatal("unknown kernel must fail")
	}
	if err := json.Unmarshal([]byte(`{"dim":3,"support":[[1,2]],"alpha":[1],"kernel":{"name":"linear"}}`), m); !errors.Is(err, ErrOptions) {
		t.Fatal("dim mismatch must fail")
	}
}
