// Command perfbench is the repository's benchmark: it runs one workload
// as a closed loop with a single client, one job at a time, and reports
// the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
// Every job's answer is checked against an independent reference, and
// every job's times are scaled to a reference host speed (calib.go).
//
// Each job runs in a fresh child process of this binary, so every
// measured set-up is cold: nothing a process-wide cache kept from an
// earlier job can make a later one cheaper. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runBudget bounds a whole invocation; no new job starts after it and a
// running one is killed at it.
const runBudget = 165 * time.Second

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "how long to keep starting jobs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, 1: traced run with the per-layer split")
		child   = flag.String("child", "", "internal: run one job (job), its set-up alone (setup) or the set-up split (split) and print its result")
		rep     = flag.Int("rep", 0, "internal: repetition number of a child job")
		traced  = flag.Bool("traced", false, "internal: trace a child job")
		runID   = flag.String("run", "", "internal: run ID shared by a run's spans")
	)
	flag.Parse()
	w, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		var res jobResult
		switch *child {
		case "job", "setup":
			res = runJob(w, *seed, *rep, *traced, *child == "setup", *runID)
		case "split":
			res = runSplit(w, *runID, *rep)
		default:
			fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", *child)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{
		exe: exe, w: w, seed: *seed,
		runID:    fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano()),
		deadline: time.Now().Add(runBudget),
	}
	if err := r.run(time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runner drives one invocation's jobs, each in a child process.
type runner struct {
	exe      string
	w        workload
	seed     int64
	runID    string
	deadline time.Time
}

// child runs one child process and decodes its result. A child that
// crashes, hangs past the run budget or prints no result yields a job
// error, which fails all of that job's answers.
func (r *runner) child(mode string, rep int, traced bool) jobResult {
	ctx, cancel := context.WithDeadline(context.Background(), r.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe,
		"--child", mode, "--workload", r.w.name, "--seed", strconv.FormatInt(r.seed, 10),
		"--rep", strconv.Itoa(rep), "--traced="+strconv.FormatBool(traced), "--run", r.runID)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res jobResult
	if err == nil {
		err = json.Unmarshal(out, &res)
	}
	if err != nil {
		res = jobResult{Err: fmt.Sprintf("child %s rep %d: %v", mode, rep, err)}
	}
	if res.Err != "" && mode == "job" {
		n := expectedAnswers(r.w, inputSeed(r.seed, rep))
		res.Answers = answerCount{Checked: n, Failed: n}
	}
	return res
}
