package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// cannedSamples is a hand-written trace, innermost frame first, covering
// each attribution rule.
var cannedSamples = []sample{
	// An internal frame names its layer.
	{[]string{"secureblox/internal/engine.(*evalEnv).candidates", "secureblox/internal/engine.(*Workspace).Assert", "secureblox/internal/dist.(*Node).loop"}, 30e6},
	// Standard-library frames go to the innermost internal caller.
	{[]string{"crypto/internal/fips140/bigmod.(*Nat).montgomeryMul", "crypto/rsa.SignPKCS1v15", "secureblox/internal/seccrypto.RSASign", "secureblox/internal/udf.RegisterWithPools.func1", "secureblox/internal/engine.(*Workspace).Assert"}, 20e6},
	// Allocation and GC assist inside a layer stay with that layer.
	{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "secureblox/internal/datalog.Tuple.Clone", "secureblox/internal/engine.(*Workspace).insert"}, 10e6},
	// GC background workers and the scheduler are the runtime's.
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10e6},
	{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, 10e6},
	// The driver's own frames.
	{[]string{"runtime.memmove", "main.runJob", "main.main"}, 10e6},
	// Standard library with no internal or driver caller.
	{[]string{"syscall.Syscall6", "os/signal.loop"}, 10e6},
}

func TestLayerOf(t *testing.T) {
	want := []string{"engine", "seccrypto", "datalog", "runtime", "runtime", "bench", "other"}
	for i, s := range cannedSamples {
		if got := layerOf(s.stack); got != want[i] {
			t.Errorf("sample %d (%s): layer %q, want %q", i, s.stack[0], got, want[i])
		}
	}
}

func TestAttributeSumsToProfileTotal(t *testing.T) {
	got := attribute(cannedSamples)
	want := map[string]float64{"engine": 0.03, "seccrypto": 0.02, "datalog": 0.01, "runtime": 0.02, "bench": 0.01, "other": 0.01}
	var sum float64
	for layer, s := range got {
		sum += s
		if math.Abs(s-want[layer]) > 1e-12 {
			t.Errorf("%s: %.3f s, want %.3f s", layer, s, want[layer])
		}
	}
	if len(got) != len(want) || math.Abs(sum-0.10) > 1e-12 {
		t.Fatalf("layers %v sum to %.3f s, want %d layers summing to 0.100 s", got, sum, len(want))
	}
}

//go:noinline
func burnCPU(d time.Duration) byte {
	var h [32]byte
	for end := time.Now().Add(d); time.Now().Before(end); {
		h = sha256.Sum256(h[:])
	}
	return h[0]
}

// TestParseProfileReadsRuntimeProfile decodes a real runtime/pprof CPU
// profile and finds the function that burned the CPU on the stacks.
func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				burn += s.cpuNs
				break
			}
		}
	}
	// The race detector's own samples carry no Go frames, so only require
	// that burnCPU's samples decoded with their callers' names.
	if total == 0 || burn == 0 {
		t.Fatalf("profile of %d samples: %.2f s total, %.2f s in burnCPU", len(samples), float64(total)/1e9, float64(burn)/1e9)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
