// Command perfbench is the repository's benchmark: it generates one
// workload's inputs from a seed, runs them through the simulator's public
// entry points (cluster.Run, core.Run), checks every output against a
// failure-free oracle, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) as one JSON line.
//
//	bash perfbench/run.sh --workload recovery --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric's name, unit and better direction, as listed in
// BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints. Host times come from
// the untraced passes, normalized to the speed probe's reference speed
// (speed.go); sim_* values are simulated and deterministic.
var endToEnd = []metricDef{
	{"host_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_gpu_s_per_host_s", "sim_gpu_s/s", "higher"},
	{"cell_ms_p50", "ms", "lower"},
	{"cell_ms_p90", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_wasted_frac", "frac", "lower"},
}

// simulatedLayer are the per-layer simulated counts and outcome shares,
// exact for a given seed. Simulated seconds use the unit sim_s to keep
// them apart from host seconds.
var simulatedLayer = []metricDef{
	{"failed_frac", "frac", "lower"},
	{"sim_recovery_s_p50", "sim_s", "lower"},
	{"sim_recovery_s_p90", "sim_s", "lower"},
	{"sim_redo_iters_per_fault", "iters", "lower"},
	{"vclock.events", "count", "lower"},
	{"vclock.dispatches", "count", "lower"},
	{"metrics.ckpt_stall_s", "sim_s", "lower"},
	{"metrics.recovery_fixed_s", "sim_s", "lower"},
	{"metrics.redo_s", "sim_s", "lower"},
	{"metrics.waiting_capacity_s", "sim_s", "lower"},
	{"checkpoint.read_mb", "MB", "lower"},
	{"checkpoint.count", "count", "lower"},
	{"peerckpt.offers", "count", "higher"},
	{"peerckpt.commits", "count", "higher"},
	{"peerckpt.commit_ratio", "frac", "higher"},
	{"pipefree.rebuilds", "count", "higher"},
	{"multistep.commits", "count", "higher"},
	{"core.incarnations", "count", "lower"},
	{"core.validation_failures", "count", "lower"},
	{"cluster.preemptions", "count", "lower"},
	{"tracestream.dropped", "count", "lower"},
}

// hostLayer are the traced run's host measurements of the workload
// itself.
var hostLayer = []metricDef{
	{"vclock.host_ns_per_event", "ns", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// perLayer returns every metric a traced run prints, in BENCHMARK.json
// order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), simulatedLayer...)
	out = append(out, hostLayer...)
	for _, m := range microbenchmarks() {
		out = append(out, metricDef{m.name + "_ns", "ns", "lower"})
		if m.allocs {
			out = append(out, metricDef{m.name + "_allocs", "allocs", "lower"})
		}
	}
	for _, b := range cpuBuckets() {
		out = append(out, metricDef{"cpu_pct." + b, "%", "lower"})
	}
	return out
}

// initialSetups is how many times a run generates its inputs and oracles
// before its first pass; setup_s is the median of these and of one more
// set-up after every pass.
const initialSetups = 5

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	profileDir string
}

func main() {
	// One simulation runs at a time on one core, so load on the machine's
	// other cores moves the figures less.
	runtime.GOMAXPROCS(1)
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 40, "host seconds the untraced run measures for")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&opt.profileDir, "profile-dir", filepath.Join(".bench_build", "profiles"),
		"where the traced run keeps its CPU profiles")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opt.trace = traceFlag == 1
	if opt.seconds <= 0 {
		return opt, errors.New("--seconds must be positive")
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == opt.workload
	}
	if !known {
		return opt, fmt.Errorf("--workload must be one of %s, got %q", strings.Join(workloadNames, ", "), opt.workload)
	}
	return opt, nil
}

// run executes one benchmark run and returns its result line. Progress
// and failure listings go to log.
func run(opt options, log io.Writer) (*result, error) {
	if opt.trace {
		return runTraced(opt, log)
	}
	// Set-up is timed a few times before the first pass and once after
	// every pass, so its samples span the run like the passes do.
	var pl *plan
	var setups []float64
	setUp := func() error {
		before := probe.measure()
		runtime.GC()
		t0 := time.Now()
		p, err := newPlan(opt.workload, opt.seed)
		d := time.Since(t0)
		setups = append(setups, normalizeTime(d, before, probe.measure()).Seconds())
		if pl == nil {
			pl = p
		}
		return err
	}
	for i := 0; i < initialSetups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	begin := time.Now()
	var passes []*passResult
	var walls, norms []float64
	for len(passes) < 2 || time.Since(begin).Seconds()+median(walls) <= opt.seconds {
		pr, err := pl.run(true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pr)
		walls = append(walls, pr.wall.Seconds())
		norms = append(norms, pr.norm.Seconds())
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	setupS := median(setups)
	res, sum := tally(passes, log)
	// Every figure is a median over the passes; the cell_ms percentiles
	// are first taken over each pass's simulations.
	var allocs, p50s, p90s []float64
	for _, p := range passes {
		allocs = append(allocs, float64(p.allocBytes))
		p50s = append(p50s, quantile(p.cellMS, 0.5))
		p90s = append(p90s, quantile(p.cellMS, 0.9))
	}
	host := median(norms)
	fmt.Fprintf(log, "perfbench: %s seed=%d: %d passes of %d simulations, wall seconds per pass %v, normalized %v\n",
		opt.workload, opt.seed, len(passes), len(passes[0].cellMS), roundAll(walls), roundAll(norms))
	res.Metrics = map[string]value{
		"host_s":               {host, "s"},
		"setup_s":              {setupS, "s"},
		"sim_gpu_s_per_host_s": {float64(sum.GPUSimNS) / 1e9 / host, "sim_gpu_s/s"},
		"cell_ms_p50":          {median(p50s), "ms"},
		"cell_ms_p90":          {median(p90s), "ms"},
		"alloc_mb":             {median(allocs) / 1e6, "MB"},
		"sim_wasted_frac":      {wastedFrac(sum), "frac"},
	}
	return res, nil
}

// tally checks that every pass simulated exactly the same outcome and
// folds the gate results into the result line. attempted counts every
// cell (or fleet tenant) run; failed counts the ones that failed the
// correctness gate unexpectedly. Known defects are listed on log and
// reported through failed_frac.
func tally(passes []*passResult, log io.Writer) (*result, simSummary) {
	res := &result{Correct: true}
	first := passes[0].sum
	for i, p := range passes {
		if i > 0 && !reflect.DeepEqual(p.sum, first) {
			res.Correct = false
			fmt.Fprintf(log, "perfbench: pass %d simulated a different outcome than pass 0\n", i)
		}
		res.Attempted += p.sum.Cells
		res.Failed += len(p.unexpected)
		for _, u := range p.unexpected {
			fmt.Fprintln(log, "perfbench: FAILED", u)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, k := range passes[0].known {
		fmt.Fprintln(log, "perfbench: known defect:", k)
	}
	return res, first
}

func wastedFrac(s simSummary) float64 {
	if s.UsefulGPU+s.WastedGPU == 0 {
		return 0
	}
	return float64(s.WastedGPU) / float64(s.UsefulGPU+s.WastedGPU)
}

// simulatedMetrics renders the per-layer simulated counts of a summary.
func simulatedMetrics(s simSummary) map[string]value {
	lat := make([]float64, len(s.Latencies))
	for i, l := range s.Latencies {
		lat[i] = float64(l) / 1e9
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	vals := map[string]float64{
		"failed_frac":                ratio(float64(len(s.Failures)), float64(s.Cells)),
		"sim_recovery_s_p50":         quantile(lat, 0.5),
		"sim_recovery_s_p90":         quantile(lat, 0.9),
		"sim_redo_iters_per_fault":   ratio(s.RedoMinibatches, float64(s.Faults)),
		"vclock.events":              float64(s.Events),
		"vclock.dispatches":          float64(s.Dispatches),
		"metrics.ckpt_stall_s":       sec(s.CkptStall),
		"metrics.recovery_fixed_s":   sec(s.RecoveryFixed),
		"metrics.redo_s":             sec(s.Redo),
		"metrics.waiting_capacity_s": sec(s.Waiting),
		"checkpoint.read_mb":         float64(s.CkptReadBytes) / 1e6,
		"checkpoint.count":           float64(s.Checkpoints),
		"peerckpt.offers":            float64(s.PeerOffers),
		"peerckpt.commits":           float64(s.PeerCommits),
		"peerckpt.commit_ratio":      ratio(float64(s.PeerCommits), float64(s.PeerOffers)),
		"pipefree.rebuilds":          float64(s.PipeRebuilds),
		"multistep.commits":          float64(s.MultiStepCommits),
		"core.incarnations":          float64(s.Incarnations),
		"core.validation_failures":   float64(s.ValidationFailures),
		"cluster.preemptions":        float64(s.Preemptions),
		"tracestream.dropped":        float64(s.StreamDropped),
	}
	out := make(map[string]value, len(vals))
	for _, m := range simulatedLayer {
		out[m.Name] = value{vals[m.Name], m.Unit}
	}
	return out
}

// runTraced is the traced run: an untraced pass, a pass under a CPU
// profile (kept in opt.profileDir), a second untraced pass, then the
// per-layer microbenchmarks. The profiled pass's wall time is compared
// with the mean of the untraced passes around it.
func runTraced(opt options, log io.Writer) (*result, error) {
	pl, err := newPlan(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	before, err := pl.run(true)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.profileDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(opt.profileDir, fmt.Sprintf("%s-seed%d.pprof", opt.workload, opt.seed))
	profiled, shares, err := profilePass(pl, profPath)
	if err != nil {
		return nil, err
	}
	after, err := pl.run(true)
	if err != nil {
		return nil, err
	}
	res, sum := tally([]*passResult{before, profiled, after}, log)
	plain := (before.wall.Seconds() + after.wall.Seconds()) / 2
	norm := (before.norm.Seconds() + after.norm.Seconds()) / 2
	res.Metrics = simulatedMetrics(sum)
	res.Metrics["vclock.host_ns_per_event"] = value{norm * 1e9 / float64(sum.Events), "ns"}
	res.Metrics["trace_overhead_pct"] = value{100 * (profiled.wall.Seconds() - plain) / plain, "%"}
	for _, b := range cpuBuckets() {
		res.Metrics["cpu_pct."+b] = value{shares[b], "%"}
	}
	for _, m := range microbenchmarks() {
		r, err := m.measure()
		if err != nil {
			return nil, fmt.Errorf("microbenchmark %s: %w", m.name, err)
		}
		res.Metrics[m.name+"_ns"] = value{r.nsPerOp, "ns"}
		if m.allocs {
			res.Metrics[m.name+"_allocs"] = value{r.allocsPerOp, "allocs"}
		}
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d traced: untraced passes %.3fs %.3fs, profiled pass %.3fs, profile %s\n",
		opt.workload, opt.seed, before.wall.Seconds(), after.wall.Seconds(), profiled.wall.Seconds(), profPath)
	return res, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
