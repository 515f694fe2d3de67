package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{20, 10}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7.75}, [3]float64{1.8125, 5.625, 8.6875}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"subthreads/internal/sim.(*machine).step":     "sim",
		"subthreads/internal/snapbin.(*Writer).U8":    "sim",
		"subthreads/internal/trace.(*Cursor).Next":    "trace",
		"subthreads/internal/tpcc.(*DB).RunTxn":       "workload",
		"subthreads/internal/service.(*Server).admit": "service",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"net/http.(*conn).serve":                      "other",
		"encoding/json.Marshal":                       "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
