// Command benchmark is the wall-clock benchmark of the split driver: six
// closed-loop workloads, each one submitter goroutine against one real
// forked worker process, driven only through the packages' public
// functions. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark --workload xmit_n1 --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	_ "decafdrivers/internal/drivers/e1000" // registers the handler table in parent and worker alike
	"decafdrivers/internal/xpc"
)

func main() {
	// The worker is a re-exec of this binary; in that role this call never
	// returns.
	xpc.MaybeRunWorker()

	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "seed for payload bytes and the netperf TX/RX interleaving")
		seconds = flag.Float64("seconds", 20, "measured window in seconds (after warm-up); the bounds in BENCHMARK.json are set for its run_seconds")
		warmup  = flag.Duration("warmup", 2*time.Second, "discarded warm-up before measuring; a fresh worker runs ~40% slow for its first two seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced window and isolation passes")
		out     = flag.String("out", ".bench_out", "directory for trace-<workload>.json span files (-trace 1)")
		agree   = flag.Bool("agree", false, "run every workload of BENCHMARK.json twice and fail if any end-to-end metric differs by more than its bound there")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One submitter plus the worker's service thread is all the load this
	// benchmark ever generates; it needs both to be runnable at once.
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: needs 2 CPUs: one for the submitter, one for the worker process")
		os.Exit(2)
	}
	cfg := config{seed: *seed, warmup: *warmup, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, out: *out}
	logEnv(os.Stderr)

	var err error
	switch {
	case *agree:
		err = runAgree(cfg)
	case *name == "all":
		err = runAll(cfg)
	default:
		var res result
		if res, err = cfg.run(*name); err == nil {
			err = printResult(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type config struct {
	seed    uint64
	warmup  time.Duration
	seconds time.Duration
	traced  bool
	out     string
}

// run measures one workload once.
func (c config) run(name string) (result, error) {
	wl, err := newWorkload(name, c.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "%s (seed %d, %v after %v warm-up, traced=%v)\n", name, c.seed, c.seconds, c.warmup, c.traced)
	var res result
	if c.traced {
		res, err = perLayer(wl, name, c.seed, c.warmup, c.seconds, c.out, os.Stderr)
	} else {
		res, err = endToEnd(wl, c.warmup, c.seconds, os.Stderr)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// runFresh measures one workload in a process of its own, as the driver
// does: peak RSS, the collector's heap target and the scheduler's state are
// per process, so workloads run one after another in this one would inherit
// each other's.
func (c config) runFresh(name string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if c.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds.Seconds()),
		"-warmup", c.warmup.String(), "-trace", trace, "-out", c.out)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// A run whose output checks failed exits non-zero but still prints its
	// result; only a run that printed none has nothing to report.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			err = runErr
		}
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// printResult writes the result line and turns failed output checks into a
// non-zero exit.
func printResult(res result) error {
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed or broke an output check", res.Failed, res.Attempted)
	}
	return nil
}

// runAll measures every workload, each in a fresh process, and prints one
// object keyed by workload.
func runAll(c config) error {
	all := make(map[string]result, len(workloadNames))
	failed := 0
	for _, name := range workloadNames {
		res, err := c.runFresh(name)
		if err != nil {
			return err
		}
		all[name] = res
		if !res.Correct {
			failed++
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(all); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d workloads failed an output check", failed)
	}
	return nil
}

// spec is the part of BENCHMARK.json the harness reads: the gated workloads,
// each end-to-end metric's bound, and the metric names.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// runAgree runs the end-to-end suite twice on the same build and seed and
// compares the two: a benchmark whose own repeat disagrees by more than a
// metric's bound cannot gate that metric.
func runAgree(c config) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("agreement mode reads the bounds from the repository root: %w", err)
	}
	c.traced = false
	var runs [2]map[string]result
	for i := range runs {
		runs[i] = make(map[string]result)
		for _, w := range sp.Workloads {
			name := w.Name
			res, err := c.runFresh(name)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed or broke an output check", name, res.Failed, res.Attempted)
			}
			runs[i][name] = res
		}
	}
	over := 0
	fmt.Printf("%-14s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range sp.Workloads {
		name := w.Name
		for _, m := range sp.EndToEnd {
			a, b := runs[0][name].Metrics[m.Name].Value, runs[1][name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			mark := ""
			if diff > m.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same build by more than their bound", over)
	}
	return nil
}

// logEnv records the machine facts a wall-clock number means nothing
// without.
func logEnv(w io.Writer) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "env: NumCPU=%d GOMAXPROCS=%d %s %s/%s cpu=%q submitters=1 workers=1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}
