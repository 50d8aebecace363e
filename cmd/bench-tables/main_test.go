package main

import (
	"math"
	"testing"

	"bitdew/internal/db"
)

func TestStats(t *testing.T) {
	min, max, sd, mean := stats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if min != 2 || max != 9 || mean != 5 {
		t.Errorf("min/max/mean = %v/%v/%v", min, max, mean)
	}
	if math.Abs(sd-2) > 1e-9 {
		t.Errorf("sd = %v, want 2", sd)
	}
	if _, _, _, m := stats(nil); m != 0 {
		t.Errorf("empty stats mean = %v", m)
	}
}

func TestSessionStoreDelegates(t *testing.T) {
	s := sessionStore{inner: db.NewRowStore()}
	if err := s.Put("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("t", "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	keys, err := s.Keys("t")
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v %v", keys, err)
	}
	visited := 0
	s.Scan("t", func(string, []byte) bool { visited++; return true })
	if visited != 1 {
		t.Errorf("Scan visited %d", visited)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHarnessSmoke exercises every table/figure generator in quick mode;
// output goes to stdout, the test asserts none of them panic.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, fn := range map[string]func(bool){
		"table2": table2, "table3": table3,
		"fig3a": fig3a, "fig3b": fig3b, "fig3c": fig3c,
		"fig4": fig4, "fig5": fig5, "fig6": fig6,
	} {
		t.Run(name, func(t *testing.T) { fn(true) })
	}
}
