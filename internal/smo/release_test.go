package smo

import (
	"errors"
	"testing"
)

// TestSolveReleasesOnEveryExit: Solve's loop gives its kernel rows back on
// each of its four exits — convergence, MaxIter, an Interrupt error and a
// Final snapshot's fast-forward — so the solver's cache is cold when it
// returns: a sweep over every row misses on each one (the cache holds all
// m rows, so a row that survived would hit). The first three fill rows while
// they run (the Interrupt hook sees the misses), so their checks bite; the
// fast-forward never fills a row and must simply leave none behind.
func TestSolveReleasesOnEveryExit(t *testing.T) {
	x, y := benchBlobs(512)
	m := x.Rows()
	_, cks := collectCheckpoints(t, defaultCfg(), 25)
	stop := errors.New("stop")
	for _, tc := range []struct {
		name    string
		edit    func(*Config)
		wantErr error
		fills   bool
	}{
		{"converged", func(*Config) {}, nil, true},
		{"max-iter", func(c *Config) { c.MaxIter = 7 }, nil, true},
		{"interrupt", func(c *Config) {
			c.Interrupt = func(iters int) error {
				if iters == 5 {
					return stop
				}
				return nil
			}
		}, stop, true},
		{"final-fast-forward", func(c *Config) { c.Restore = cks[len(cks)-1] }, nil, false},
	} {
		cfg := defaultCfg()
		tc.edit(&cfg)
		var s *Solver
		filled := false
		probe := cfg.Interrupt
		cfg.Interrupt = func(iters int) error {
			_, misses, _ := s.cache.Stats()
			filled = filled || misses > 0
			if probe != nil {
				return probe(iters)
			}
			return nil
		}
		s, err := New(x, y, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run((*localPair)(s), m)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.wantErr)
		}
		if tc.name == "max-iter" && (res.Converged || res.Iters != 7) {
			t.Fatalf("max-iter: converged=%v after %d iterations", res.Converged, res.Iters)
		}
		if tc.fills != filled {
			t.Fatalf("%s: filled rows while it ran: %v", tc.name, filled)
		}
		_, before, _ := s.cache.Stats()
		for i := range m {
			s.cache.Row(i)
		}
		if _, after, _ := s.cache.Stats(); after-before != int64(m) {
			t.Fatalf("%s: %d of %d rows still resident after the solve returned", tc.name, int64(m)-(after-before), m)
		}
	}
}
