package main

import "testing"

// TestEndToEndValuesScaleTimesOnly checks that a job measured while the
// calibration kernel ran twice as slow as the reference reports half its
// times, and its bytes and heap as measured.
func TestEndToEndValuesScaleTimesOnly(t *testing.T) {
	r := jobResult{
		SetupS: 2, FixpointS: 4, FixpointCPUS: 6, ConvergeP50S: 3,
		BytesPerNodeKB: 50, HeapLiveMB: 40, CalibS: 2 * refCalibS,
	}
	want := map[string]float64{
		"setup_s": 1, "fixpoint_s": 2, "total_s": 3, "fixpoint_cpu_s": 3, "converge_p50_s": 1.5,
		"bytes_per_node_kb": 50, "heap_live_mb": 40, "calib_s": 2 * refCalibS,
	}
	got := endToEndValues(r)
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
