// Command perfbench is segdb's end-to-end benchmark. It runs one of
// three workloads against the program's public API for a fixed time,
// checks every answer against a computation of its own, and prints one
// JSON line of metrics:
//
//	perfbench --workload <paper-study|serve-zipf|ingest-mixed> --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds and prints the per-layer
// metrics of the traced ones and the tracing overhead. --repeat N runs
// a workload N times, each in its own process with its own seed, and
// prints each metric's median and quartiles. --selftest plants wrong
// answers and checks that the checker counts each as a failure.
// --serve-reference times the serve-zipf stream over three transports.
// See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"segdb"
)

// bench is one workload.
type bench interface {
	// setupPerRound reports whether every round starts from a fresh
	// setup; otherwise the run sets up setupRepeats times and every
	// round reuses the last setup.
	setupPerRound() bool
	// setup builds the program state; its duration is setup_s.
	setup() (time.Duration, error)
	// round runs the workload's fixed operation stream once.
	round(p *phase) error
	// finish fills the count, size and memory metrics.
	finish(p *phase, e e2eValues)
	// layers fills the per-layer metrics of a traced phase.
	layers(p *phase, v layerValues)
	// sample returns segments and query windows of the workload, for the
	// decode and compare microbenchmarks.
	sample() ([]segdb.Segment, []segdb.Rect)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

var workloads = map[string]func(seed int64) (bench, error){
	"paper-study":  func(seed int64) (bench, error) { return newPaperBench(seed) },
	"serve-zipf":   func(seed int64) (bench, error) { return newServeBench(seed) },
	"ingest-mixed": func(seed int64) (bench, error) { return newIngestBench(seed) },
}

func main() {
	workload := flag.String("workload", "", "paper-study, serve-zipf or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print medians and quartiles")
	selftest := flag.Bool("selftest", false, "plant wrong answers and check that each counts as a failure")
	reference := flag.Bool("serve-reference", false, "time the serve-zipf stream in process, over loopback TCP and on the router alone")
	flag.Parse()

	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case *selftest:
		if err = selfTest(); err == nil {
			fmt.Println(`{"selftest":"pass","planted":4,"detected":4}`)
		}
	case *reference:
		err = serveReference(*seed, *seconds)
	case *repeat > 0:
		err = runRepeat(*workload, *seed, *seconds, *trace, *repeat)
	default:
		err = runOnce(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOnce(workload string, seed int64, seconds float64, traced bool) error {
	mk, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	// Every run first proves its checker live on planted wrong answers.
	if err := selfTest(); err != nil {
		return err
	}
	b, err := mk(seed)
	if err != nil {
		return err
	}
	var rep *report
	if traced {
		rep, err = measureLayers(b, workload, seed, seconds)
	} else {
		rep, err = measureEndToEnd(b, seconds)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runRounds runs whole rounds until seconds have passed, or exactly
// maxRounds rounds when that is positive.
func runRounds(b bench, p *phase, seconds float64, maxRounds int, setups *[]float64) error {
	start := time.Now()
	for {
		if b.setupPerRound() {
			if err := setupTimes(b, 1, setups); err != nil {
				return err
			}
		}
		n0 := len(p.lat)
		if err := b.round(p); err != nil {
			return err
		}
		p.rates = append(p.rates, float64(len(p.lat)-n0)/(p.lat[n0:].sum()/1e6))
		if p.rounds == maxRounds || (maxRounds == 0 && time.Since(start).Seconds() >= seconds) {
			return nil
		}
	}
}

// setupTimes sets up n times and records each duration.
func setupTimes(b bench, n int, setups *[]float64) error {
	for i := 0; i < n; i++ {
		d, err := b.setup()
		if err != nil {
			return err
		}
		*setups = append(*setups, d.Seconds())
	}
	return nil
}

func measureEndToEnd(b bench, seconds float64) (*report, error) {
	// setup_s is the median of at least setupRepeats set-ups. A
	// workload whose rounds each set up afresh first runs one round
	// unmeasured, since a process's first round runs slower (paper-study's
	// three builds warm its process instead); that round and every
	// measured one set up once more.
	n := setupRepeats
	if b.setupPerRound() {
		n -= 2
	}
	var setups []float64
	if err := setupTimes(b, n, &setups); err != nil {
		return nil, err
	}
	p := newPhase(nil)
	if b.setupPerRound() {
		warm := newPhase(nil)
		if err := runRounds(b, warm, 0, 1, &setups); err != nil {
			return nil, err
		}
		p.tally = warm.tally
	}
	if err := runRounds(b, p, seconds, 0, &setups); err != nil {
		return nil, err
	}
	ops := float64(len(p.lat))
	e := e2eValues{
		"setup_s":              median(setups),
		"ops_per_s":            median(p.rates),
		"p50_us":               p.lat.quantile(0.50),
		"disk_accesses_per_op": float64(p.m.DiskAccesses) / ops,
		"seg_comps_per_op":     float64(p.m.SegComps) / ops,
		"node_comps_per_op":    float64(p.m.NodeComps) / ops,
	}
	b.finish(p, e)
	// The tail is too seed- and machine-dependent to gate on; it is
	// printed for reference.
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d timed operations, p99_us %.1f, ops_per_s by round %.0f\n",
		p.rounds, len(p.lat), p.lat.quantile(0.99), p.rates)
	if p.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", p.firstFailure)
	}
	return &report{Correct: p.wrong == 0, Attempted: p.attempted, Failed: p.failed, Metrics: e.metrics()}, nil
}

// measureLayers runs the workload untraced and traced for the same
// number of rounds, reports the per-layer metrics of the traced phase
// and the tracing overhead, and writes the spans out.
func measureLayers(b bench, workload string, seed int64, seconds float64) (*report, error) {
	var setups []float64
	if !b.setupPerRound() {
		if err := setupTimes(b, 1, &setups); err != nil {
			return nil, err
		}
	}
	// A first round warms the heap and the caches and is not counted;
	// then untraced and traced rounds alternate, so drift in the
	// machine's speed weighs on both alike.
	warm, plain, traced := newPhase(nil), newPhase(nil), newPhase(newTracer())
	if err := runRounds(b, warm, 0, 1, &setups); err != nil {
		return nil, err
	}
	start := time.Now()
	for plain.rounds == 0 || time.Since(start).Seconds() < seconds {
		if err := runRounds(b, plain, 0, plain.rounds+1, &setups); err != nil {
			return nil, err
		}
		if err := runRounds(b, traced, 0, traced.rounds+1, &setups); err != nil {
			return nil, err
		}
	}
	v := layerValues{}
	b.layers(traced, v)
	segs, windows := b.sample()
	if err := microbench(segs, windows, v); err != nil {
		return nil, err
	}
	v["trace.overhead_pct"] = (traced.lat.mean()/plain.lat.mean() - 1) * 100
	path, err := traced.tr.writeJSONL(fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err != nil {
		return nil, err
	}
	block := map[string]any{
		"workload": workload, "seed": seed, "rounds": traced.rounds,
		"spans": len(traced.tr.spans), "spans_dropped": traced.tr.dropped, "spans_file": path,
		"env": environment(), "per_layer": v,
	}
	out, err := json.Marshal(block)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(out))
	wrong := warm.wrong + plain.wrong + traced.wrong
	return &report{Correct: wrong == 0, Attempted: warm.attempted + plain.attempted + traced.attempted,
		Failed: warm.failed + plain.failed + traced.failed, Metrics: v.metrics()}, nil
}

// environment describes the machine a traced run measured on.
func environment() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": model, "go_version": runtime.Version(),
	}
}

// runRepeat runs the workload n times, each in a child process with its
// own seed, and prints every metric's median, quartiles and spread
// (the quartile distance as a share of the median), then one JSON line
// with the same figures.
func runRepeat(workload string, seed int64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !rep.Correct {
			return errors.New("run with seed " + strconv.FormatInt(s, 10) + " reported wrong answers")
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	fmt.Printf("%-40s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := v[0], v[0], v[0]
		if len(v) >= 2 {
			q1, q2, q3 = quartiles(v)
		}
		spread := ratio(q3-q1, q2)
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %7.2f%% %s\n", name, q1, q2, q3, spread*100, units[name])
		summary[name] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread}
	}
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(failShares, " "))
	out, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
