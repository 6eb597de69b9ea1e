package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/core"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 as the median over the run's jobs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fixpoint_s", "s"},
	{"total_s", "s"},
	{"fixpoint_cpu_s", "s"},
	{"converge_p50_s", "s"},
	{"bytes_per_node_kb", "KB"},
	{"heap_live_mb", "MB"},
}

// cpuLayers are the layers the CPU profile is split into by name; every
// other layer is summed into rest.cpu_s.
var cpuLayers = []string{"generics", "seccrypto", "engine", "datalog", "udf", "wire", "dist", "transport", "runtime"}

// perLayer are the metrics of single layers, reported with --trace 1 as
// the median over the run's traced jobs.
var perLayer = []metricDef{
	{"generics.compile_s", "s"},
	{"generics.cpu_s", "s"},
	{"seccrypto.keygen_s", "s"},
	{"seccrypto.cpu_s", "s"},
	{"seccrypto.sign_ops", "count"},
	{"seccrypto.verify_ops", "count"},
	{"seccrypto.signpool_hit_ratio", "ratio"},
	{"seccrypto.signpool_requests", "count"},
	{"seccrypto.verifypool_hit_ratio", "ratio"},
	{"seccrypto.verifypool_requests", "count"},
	{"seccrypto.sign_stage_s", "s"},
	{"seccrypto.verify_stage_s", "s"},
	{"engine.install_s", "s"},
	{"engine.cpu_s", "s"},
	{"engine.txns", "count"},
	{"engine.rounds", "count"},
	{"engine.index_probes", "count"},
	{"engine.leading_scans", "count"},
	{"engine.fullscan_fallbacks", "count"},
	{"engine.fixpoint_stage_s", "s"},
	{"core.assemble_s", "s"},
	{"datalog.cpu_s", "s"},
	{"udf.cpu_s", "s"},
	{"wire.cpu_s", "s"},
	{"wire.bytes_sent", "bytes"},
	{"wire.msgs_sent", "count"},
	{"wire.bytes_per_msg", "bytes"},
	{"wire.decode_stage_s", "s"},
	{"dist.cpu_s", "s"},
	{"dist.msgs_processed", "count"},
	{"dist.ship_stage_s", "s"},
	{"dist.txn_p50_ms", "ms"},
	{"dist.txn_p90_ms", "ms"},
	{"dist.violations", "count"},
	{"dist.sent_set_size", "count"},
	{"dist.detect_lag_s", "s"},
	{"transport.cpu_s", "s"},
	{"transport.retransmits", "count"},
	{"transport.retransmit_ratio", "ratio"},
	{"transport.dup_drops", "count"},
	{"transport.backoffs", "count"},
	{"transport.send_deferrals", "count"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"rest.cpu_s", "s"},
	{"profile.cpu_s", "s"},
	{"obs.spans_dropped", "count"},
	{"trace.overhead_share", "ratio"},
	{"check.failed_share", "ratio"},
}

// expectedAnswers is the number of answers a job on input seed in is
// checked on: every route of the connected graph, or every tuple of the
// reference join.
func expectedAnswers(w workload, in int64) int {
	if w.pathVec {
		return w.n * (w.n - 1)
	}
	principals := make([]string, w.n)
	for i := range principals {
		principals[i] = core.PrincipalName(i)
	}
	_, parts, _ := apps.HashJoinInput(w.hashJoinConfig(in), principals)
	return len(referenceJoin(parts))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// endToEndValues returns a completed job's end-to-end metrics, its times
// scaled to the reference host speed (see calib.go), and the calibration
// time they were scaled by.
func endToEndValues(r jobResult) map[string]float64 {
	k := refCalibS / r.CalibS
	return map[string]float64{
		"setup_s":           k * r.SetupS,
		"fixpoint_s":        k * r.FixpointS,
		"total_s":           k * (r.SetupS + r.FixpointS),
		"fixpoint_cpu_s":    k * r.FixpointCPUS,
		"converge_p50_s":    k * r.ConvergeP50S,
		"bytes_per_node_kb": r.BytesPerNodeKB,
		"heap_live_mb":      r.HeapLiveMB,
		"calib_s":           r.CalibS,
	}
}

// summary collects per-job values of named metrics.
type summary map[string][]float64

func (s summary) add(vals map[string]float64) {
	for k, v := range vals {
		s[k] = append(s[k], v)
	}
}

func (s summary) median(name string) float64 {
	_, m, _ := quartiles(s[name])
	return m
}

// print writes one human-readable line per metric.
func (s summary) print(title string, defs []metricDef) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		xs := s[d.name]
		if len(xs) == 0 {
			fmt.Printf("  %-32s %12s %-6s\n", d.name, "-", d.unit)
			continue
		}
		q1, m, q3 := quartiles(xs)
		fmt.Printf("  %-32s %12.6g %-6s n=%d q1=%.6g q3=%.6g\n", d.name, m, d.unit, len(xs), q1, q3)
	}
}

// An untraced run spends up to setupShare of its time on set-up-only
// children, when a job's set-up takes less than cheapSetup of the job's
// wall time.
const (
	setupShare = 0.25
	cheapSetup = 0.25
)

// run executes jobs until the measuring window closes and prints the
// report. A traced run alternates an untraced job with a traced job on
// the same input plus a set-up split, so the tracing overhead is measured
// on equal inputs.
func (r *runner) run(window time.Duration, traced bool) error {
	start := time.Now()
	var answers answerCount
	var jobAnswers []answerCount
	var jobErrs []string
	plain, tracedE2E, layers := summary{}, summary{}, summary{}
	cpuTotals := map[string]float64{}
	var profileTotal float64 // CPU of every profile sample, summed apart from attribution
	var spans []benchSpan
	var tracedSetupRaw []float64 // unscaled, like the set-up split's parts
	count := func(res jobResult) bool {
		answers.Checked += res.Answers.Checked
		answers.Failed += res.Answers.Failed
		jobAnswers = append(jobAnswers, res.Answers)
		if res.Err != "" {
			jobErrs = append(jobErrs, res.Err)
			return false
		}
		return true
	}
	var setupOnly time.Duration
	for rep := 0; time.Since(start) < window || rep == 0; rep++ {
		if time.Now().After(r.deadline) {
			break
		}
		jobStart := time.Now()
		res := r.child("job", rep, false)
		jobWall := time.Since(jobStart).Seconds()
		if count(res) {
			plain.add(endToEndValues(res))
		}
		if !traced {
			// Where a set-up costs little next to a whole job, extra cold
			// set-ups, up to a fixed share of the run's time, steady
			// setup_s for few lost jobs.
			cheap := res.Err == "" && res.SetupS < cheapSetup*jobWall
			for cheap && setupOnly.Seconds() < setupShare*time.Since(start).Seconds() && time.Since(start) < window {
				t := time.Now()
				s := r.child("setup", rep, false)
				setupOnly += time.Since(t)
				if s.Err != "" {
					jobErrs = append(jobErrs, s.Err)
					continue
				}
				plain["setup_s"] = append(plain["setup_s"], refCalibS/s.CalibS*s.SetupS)
			}
			continue
		}
		tr := r.child("job", rep, true)
		split := r.child("split", rep, false)
		spans = append(spans, tr.Spans...)
		spans = append(spans, split.Spans...)
		if split.Err != "" {
			jobErrs = append(jobErrs, split.Err)
		}
		if !count(tr) || split.Err != "" {
			continue
		}
		tracedE2E.add(endToEndValues(tr))
		tracedSetupRaw = append(tracedSetupRaw, tr.SetupS)
		vals := tr.Layer
		for k, v := range split.Layer {
			vals[k] = v
		}
		var attributed float64
		for layer, s := range tr.LayerCPU {
			cpuTotals[layer] += s
			attributed += s
		}
		profileTotal += vals["profile.cpu_s"]
		rest := attributed
		for _, l := range cpuLayers {
			vals[l+".cpu_s"] = tr.LayerCPU[l]
			rest -= tr.LayerCPU[l]
		}
		vals["rest.cpu_s"] = rest
		layers.add(vals)
	}

	// A run is correct when every job completed and its answers were all
	// checked. Wrong answers do not void the run: they fail the run's
	// answer check, which the result line carries as its one operation.
	// The number of wrong routes depends on message interleaving, so a
	// per-answer count would differ between two runs of the same input;
	// whether a run has any wrong answer has not. The per-answer share is
	// printed as failed_share and reported as check.failed_share.
	correct := len(jobErrs) == 0
	for _, e := range jobErrs {
		fmt.Printf("job error: %s\n", e)
	}
	failedShare := 0.0
	if answers.Checked > 0 {
		failedShare = float64(answers.Failed) / float64(answers.Checked)
	}
	fmt.Printf("workload %s seed %d: closed loop, 1 client, %d jobs and %d set-ups in %.1f s\n",
		r.w.name, r.seed, len(plain["fixpoint_s"]), len(plain["setup_s"]), time.Since(start).Seconds())
	fmt.Printf("  %-32s %12.6g %-6s (%d of %d answers wrong, missing or extra)\n",
		"failed_share", failedShare, "ratio", answers.Failed, answers.Checked)
	fmt.Printf("  host speed: calibration kernel %.4g s median over jobs, reference %g s; times are scaled per job to the reference\n",
		plain.median("calib_s"), refCalibS)
	plain.print("end-to-end (untraced jobs, median):", endToEnd)

	out := result{Correct: correct, Attempted: 1, Metrics: map[string]metricValue{}}
	verdict := "passed"
	if answers.Failed > 0 {
		out.Failed, verdict = 1, "failed"
	}
	fmt.Printf("  answer check: %s\n", verdict)
	if !traced {
		if len(plain["setup_s"]) == 0 {
			return fmt.Errorf("no job completed")
		}
		for _, d := range endToEnd {
			out.Metrics[d.name] = metricValue{plain.median(d.name), d.unit}
		}
		if err := writeRunFile(r, false, map[string]any{"per_job": plain, "answers": jobAnswers}); err != nil {
			return err
		}
		return printResult(out)
	}

	if len(layers["profile.cpu_s"]) == 0 || len(plain["total_s"]) == 0 {
		return fmt.Errorf("no traced and untraced job pair completed")
	}
	// The set-up parts come from other processes than the traced jobs, and
	// key generation time varies per call, so the remainder is taken
	// between medians rather than per job.
	_, setupRaw, _ := quartiles(tracedSetupRaw)
	layers["core.assemble_s"] = []float64{setupRaw - layers.median("generics.compile_s") -
		layers.median("seccrypto.keygen_s") - layers.median("engine.install_s")}
	overhead := tracedE2E.median("total_s")/plain.median("total_s") - 1
	layers["trace.overhead_share"] = []float64{overhead}
	layers["check.failed_share"] = []float64{failedShare}
	tracedE2E.print("end-to-end (traced jobs, median):", endToEnd)
	fmt.Printf("  tracing overhead on total_s: %+.1f%% (traced %.4g s vs untraced %.4g s)\n",
		100*overhead, tracedE2E.median("total_s"), plain.median("total_s"))
	if err := printCPUShares(cpuTotals, profileTotal); err != nil {
		return err
	}
	layers.print("per-layer (traced jobs, median):", perLayer)

	if maxOf(layers["obs.spans_dropped"]) > 0 {
		fmt.Printf("invalid traced run: %v stage spans dropped\n", maxOf(layers["obs.spans_dropped"]))
		out.Correct = false
	}
	if r.w.transport == "mem" {
		for _, name := range transportCounts {
			if maxOf(layers[name]) != 0 {
				fmt.Printf("invalid traced run: %s = %v on a memnet workload\n", name, maxOf(layers[name]))
				out.Correct = false
			}
		}
	}
	if err := writeRunFile(r, true, map[string]any{
		"per_job": plain, "answers": jobAnswers, "per_traced_job": layers, "traced_end_to_end": tracedE2E,
		"spans": spans, "cpu_layers": cpuTotals,
	}); err != nil {
		return err
	}
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{layers.median(d.name), d.unit}
	}
	return printResult(out)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// printCPUShares prints each layer's share of the profiled CPU and checks
// that the layers account for exactly the profile's total.
func printCPUShares(layers map[string]float64, profileTotal float64) error {
	var names []string
	var sum float64
	for l, s := range layers {
		names = append(names, l)
		sum += s
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Printf("CPU profile by layer (all traced jobs, %.3f s):\n", profileTotal)
	for _, l := range names {
		fmt.Printf("  %-12s %8.3f s %6.1f%%\n", l, layers[l], 100*layers[l]/profileTotal)
	}
	if math.Abs(sum-profileTotal) > 1e-6*profileTotal {
		return fmt.Errorf("layers sum to %.6f s of CPU, the profile to %.6f s", sum, profileTotal)
	}
	fmt.Printf("  layers sum to the profile total (%.3f s)\n", sum)
	return nil
}

func printResult(out result) error {
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir is where each run leaves its per-job data, relative to the
// working directory.
const outDir = ".bench_out"

// writeRunFile writes a run's per-job data (and, for a traced run, its
// spans and CPU split) to one JSON file.
func writeRunFile(r *runner, traced bool, data map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data["run"], data["workload"], data["seed"] = r.runID, r.w.name, r.seed
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.w.name, r.seed, map[bool]int{false: 0, true: 1}[traced]))
	b, err := json.MarshalIndent(data, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("per-job data written to %s\n", path)
	return nil
}
