package main

import (
	"reflect"
	"testing"
)

const (
	smokeNodes = 16
	smokeTicks = 20
	smokeSeed  = 11
)

// The replay source must publish the same vectors for the same seed, and
// different phases for another.
func TestReplaySourceDeterministic(t *testing.T) {
	rec, err := recordFleet(smokeSeed, 8, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := recordFleet(smokeSeed, 8, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, rec2) {
		t.Fatal("two recordings of one seed differ")
	}
	a, b := newReplaySource(rec, 40, smokeSeed), newReplaySource(rec, 40, smokeSeed)
	other := newReplaySource(rec, 40, smokeSeed+1)
	if !reflect.DeepEqual(a.phase, b.phase) {
		t.Fatal("phases differ for one seed")
	}
	if reflect.DeepEqual(a.phase, other.phase) {
		t.Fatal("phases equal for different seeds")
	}
	for tick := 0; tick < 70; tick++ { // past one cycle of the recording
		for i := 0; i < 40; i++ {
			sa, ta := a.at(tick, i)
			sb, tb := b.at(tick, i)
			if &sa[0] != &sb[0] || &ta[0] != &tb[0] {
				t.Fatalf("tick %d node %d: sources disagree", tick, i)
			}
		}
	}
}

// Every workload, on a 16-node fleet for 20 ticks past the warm-up, must
// reproduce the reference's sink output byte for byte. (Whether the injected
// node is flagged is checked on the larger fleet below: sixteen nodes run
// too few tasks for a steady peer median this early.)
func TestWorkloadsMatchReference(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s, err := buildStack(w, smokeNodes, smokeSeed, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				s.release()
				s.discard()
			}()
			for i := 0; i < smokeTicks; i++ {
				var tr tickRecord
				s.step(&tr)
			}
			v := s.check()
			if v.diff.Reference == 0 {
				t.Fatal("the reference produced no rows")
			}
			if share := float64(v.diff.failed()+v.runErrors) / float64(v.diff.Reference); share != 0 {
				t.Errorf("failed_op_share = %v: %+v, %d run errors", share, v.diff, v.runErrors)
			}
		})
	}
}

// One whole run per mode, on 64-node fleets: every metric is reported under
// its name, the run is correct — the injected node flagged, sink output
// equal to the reference's — and no goroutine outlives it.
func TestRunWorkloadReportsEveryMetric(t *testing.T) {
	for _, tc := range []struct {
		workload string
		traced   bool
		seconds  float64
	}{
		{"fleet-columnar-512", false, 0.3},
		{"hier-paced-512", true, 2.4},
		{"analysis-replay-2048", true, 0.4},
	} {
		w, _ := findWorkload(tc.workload)
		res, err := runWorkload(w, runOptions{seed: smokeSeed, seconds: tc.seconds, traced: tc.traced,
			nodes: 64, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v",
				tc.workload, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		want := len(endToEndNames)
		if tc.traced {
			want = len(perLayerNames)
		}
		if len(res.Metrics) != want {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(res.Metrics), want)
		}
		for _, m := range res.Metrics {
			if !tc.traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", tc.workload, m.Name, m.Value)
			}
		}
	}
}
