package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/graph"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// jobTimeout bounds one fixpoint wait; a run that exceeds it fails all of
// its answers.
const jobTimeout = 90 * time.Second

// spanCap sizes the program's span ring in a traced job so that no stage
// span is overwritten (a pv job records well under 100k).
const spanCap = 1 << 17

// benchSpan is one span the benchmark records around its own call into
// the program. Spans of one run share Run.
type benchSpan struct {
	Run   string  `json:"run"`
	Rep   int     `json:"rep"`
	Name  string  `json:"name"`
	Start float64 `json:"start_s"` // offset from the job's start
	Dur   float64 `json:"dur_s"`
}

// jobResult is what one repetition reports to the parent process.
type jobResult struct {
	SetupS         float64            `json:"setup_s"`
	FixpointS      float64            `json:"fixpoint_s"`
	FixpointCPUS   float64            `json:"fixpoint_cpu_s"`
	ConvergeP50S   float64            `json:"converge_p50_s"`
	BytesPerNodeKB float64            `json:"bytes_per_node_kb"`
	HeapLiveMB     float64            `json:"heap_live_mb"`
	CalibS         float64            `json:"calib_s"` // calibration kernel's time before set-up
	Answers        answerCount        `json:"answers"`
	Err            string             `json:"err,omitempty"`
	Layer          map[string]float64 `json:"layer,omitempty"`
	LayerCPU       map[string]float64 `json:"layer_cpu,omitempty"`
	Spans          []benchSpan        `json:"spans,omitempty"`
}

// spanRecorder times the benchmark's own calls when tracing is on.
type spanRecorder struct {
	on    bool
	run   string
	rep   int
	t0    time.Time
	spans []benchSpan
}

func (r *spanRecorder) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	if r.on {
		r.spans = append(r.spans, benchSpan{
			Run: r.run, Rep: r.rep, Name: name,
			Start: start.Sub(r.t0).Seconds(), Dur: time.Since(start).Seconds(),
		})
	}
	return err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runJob runs one repetition: build the cluster, assert the inputs from
// one goroutine, wait for the proven fixpoint, check every answer, stop.
// With setupOnly it stops right after set-up. A traced job also records
// the benchmark's spans, reads the program's stage spans and takes a CPU
// profile of set-up plus fixpoint. The calibration kernel runs first,
// before any program code has run in the process.
func runJob(w workload, seed int64, rep int, traced, setupOnly bool, runID string) jobResult {
	res := jobResult{CalibS: calibrate()}
	in := inputSeed(seed, rep)
	var g *graph.Graph
	if w.pathVec {
		g = graph.RandomConnected(w.n, w.degree, in)
	}
	rec := &spanRecorder{on: traced, run: runID, rep: rep, t0: time.Now()}
	var prof bytes.Buffer
	if traced {
		obs.SetSpanCap(spanCap)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Err = fmt.Sprintf("cpu profile: %v", err)
			return res
		}
	}
	before := readCounters()
	rt0 := readRuntime()

	var c *core.Cluster
	var parts [][]engine.Fact
	t0 := time.Now()
	err := rec.time("setup.new_cluster", func() error {
		net, err := core.NewNetwork(w.transport)
		if err != nil {
			return err
		}
		c, err = core.NewCluster(core.ClusterConfig{
			N: w.n, Policy: w.policy, Query: w.query(), Seed: w.keySeed, Net: net,
		})
		return err
	})
	if err == nil && !w.pathVec {
		err = rec.time("setup.hashjoin_metadata", func() error {
			var common []engine.Fact
			common, parts, _ = apps.HashJoinInput(w.hashJoinConfig(in), c.Principals)
			for i, n := range c.Nodes {
				if _, err := n.WS.Assert(common); err != nil {
					return fmt.Errorf("metadata on node %d: %w", i, err)
				}
			}
			return nil
		})
	}
	res.SetupS = time.Since(t0).Seconds()
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		if c != nil {
			c.Stop()
		}
		res.Err = fmt.Sprintf("setup: %v", err)
		return res
	}
	if setupOnly {
		c.Stop()
		return res
	}

	cpu0 := processCPU()
	_ = rec.time("fixpoint.start_assert", func() error {
		c.Start()
		for i := range c.Nodes {
			var facts []engine.Fact
			if w.pathVec {
				facts = apps.PathVectorLinkFacts(g, c.Addrs, i)
			} else {
				facts = parts[i]
			}
			if len(facts) > 0 {
				c.AssertAt(i, facts)
			}
		}
		return nil
	})
	var fix time.Duration
	err = rec.time("fixpoint.wait", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		var err error
		fix, err = c.WaitFixpointCtx(ctx)
		return err
	})
	res.FixpointCPUS = (processCPU() - cpu0).Seconds()
	res.FixpointS = fix.Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		c.Stop()
		res.Err = fmt.Sprintf("fixpoint: %v", err)
		return res
	}

	conv := c.ConvergenceTimes()
	sort.Slice(conv, func(i, j int) bool { return conv[i] < conv[j] })
	res.ConvergeP50S = conv[len(conv)/2].Seconds()
	res.BytesPerNodeKB = c.MeanNodeTrafficKB()
	res.Layer = layerMetrics(before, readCounters(), rt0, readRuntime())
	res.Layer["dist.detect_lag_s"] = res.FixpointS - conv[len(conv)-1].Seconds()
	res.Layer["dist.sent_set_size"] = obs.SumPromFamilies(obs.Default().Render())["sbx_sent_set_size"]
	violations := len(c.Violations())
	res.Layer["dist.violations"] = float64(violations)
	if traced {
		addStageSpans(res.Layer, obs.Spans())
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			c.Stop()
			res.Err = fmt.Sprintf("cpu profile: %v", err)
			return res
		}
		res.LayerCPU = attribute(samples)
		var total int64
		for _, s := range samples {
			total += s.cpuNs
		}
		res.Layer["profile.cpu_s"] = float64(total) / 1e9
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapLiveMB = float64(ms.HeapAlloc) / (1 << 20)

	_ = rec.time("check", func() error {
		if w.pathVec {
			res.Answers = checkRoutes(shortestPaths(g), bestCosts(c))
		} else {
			res.Answers = checkJoin(referenceJoin(parts), c.Query(0, "joinresult"))
		}
		return nil
	})
	_ = rec.time("stop", func() error { c.Stop(); return nil })
	if violations > 0 {
		res.Err = fmt.Sprintf("%d constraint violations", violations)
	}
	res.Spans = rec.spans
	return res
}

func shortestPaths(g *graph.Graph) [][]int {
	out := make([][]int, g.N)
	for i := range out {
		out[i] = g.ShortestPaths(i)
	}
	return out
}

// bestCosts reads every node's bestcost[Src, Dst]=C extent as destination
// index → cost.
func bestCosts(c *core.Cluster) []map[int]int64 {
	idx := make(map[string]int, len(c.Addrs))
	for i, a := range c.Addrs {
		idx[a] = i
	}
	out := make([]map[int]int64, len(c.Nodes))
	for i := range c.Nodes {
		out[i] = map[int]int64{}
		outside := 0
		for _, t := range c.Query(i, "bestcost") {
			j, ok := idx[t[1].Str]
			if t[0].Str != c.Addrs[i] || !ok {
				// A route from another source or to a node outside the
				// cluster: a distinct negative key marks an extra answer.
				outside--
				j = outside
			}
			out[i][j] = t[2].Int
		}
	}
	return out
}

// runSplit times set-up's parts separately, with the inputs NewCluster
// gives them: compiling the policy into the program, generating the key
// material, and installing the program on each node's workspace. It runs
// in its own process so that neither it nor the traced job warms the
// other.
func runSplit(w workload, runID string, rep int) jobResult {
	rec := &spanRecorder{on: true, run: runID, rep: rep, t0: time.Now()}
	res := jobResult{Layer: map[string]float64{}}
	principals := make([]string, w.n)
	for i := range principals {
		principals[i] = core.PrincipalName(i)
	}
	var prog *datalog.Program
	err := rec.time("setup.compile", func() error {
		r, err := core.CompileProgram(w.policy, w.query(), nil)
		if err == nil {
			prog = r.Program
		}
		return err
	})
	var ts *seccrypto.TrustSetup
	if err == nil {
		err = rec.time("setup.keygen", func() error {
			var err error
			ts, err = seccrypto.NewTrustSetup(principals, seccrypto.NewDeterministicRand(w.keySeed+1))
			return err
		})
	}
	for i := 0; err == nil && i < w.n; i++ {
		reg, rerr := udf.NewRegistryWithPools(ts.Stores[principals[i]], seccrypto.NewDeterministicRand(w.keySeed+2), nil, nil)
		if rerr != nil {
			err = rerr
			break
		}
		ws := engine.NewWorkspace(reg)
		ws.EntityBase = int64(i+1) << 40
		err = rec.time("setup.install", func() error { return ws.Install(prog) })
	}
	if err != nil {
		res.Err = fmt.Sprintf("split setup: %v", err)
		return res
	}
	for _, s := range rec.spans {
		switch s.Name {
		case "setup.compile":
			res.Layer["generics.compile_s"] += s.Dur
		case "setup.keygen":
			res.Layer["seccrypto.keygen_s"] += s.Dur
		case "setup.install":
			res.Layer["engine.install_s"] += s.Dur
		}
	}
	res.Spans = rec.spans
	return res
}

// runtimeSample is the Go runtime's own accounting at one instant.
type runtimeSample struct{ gcCPU, allocBytes, gcCycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
