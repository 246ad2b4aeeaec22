// Command perfbench is the repository benchmark: it trains the served
// model, drives a cmd/traced process over loopback HTTP with an
// open-loop and a closed-loop load, runs the offline train-and-sample
// path in-process, checks every output it can against the serial
// decoder, and prints the metrics named in BENCHMARK.json.
//
// Run it from the repository root through run.sh, which builds it and
// cmd/traced from source:
//
//	bash perfbench/run.sh --workload serve-day --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a traced run. Lines before it starting with "#" describe
// the run. README.md says why each workload exists and which end-to-end
// metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of an untraced run, reported by every
// workload. Every untraced run also prints the light and heavy
// latencies (light.p50_ms, light.tail_ms, heavy.p50_ms, heavy.tail_ms),
// capacity_rps, train_s and mc_streams_per_s, but they are kept out of
// this list: on the shared 2-CPU host the benchmark was built on, host
// contention came and went for whole minutes, and their quartile
// spread over ten seeds reached 0.36 to 1.4 of the median for the
// latencies, 0.29 and 0.35 for the two throughputs and 0.25 for
// train_s, as wide as or wider than a regression bound can be.
// setup_s, which is mostly TrainModel, gates training and start-up.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"flavor_dev_nll", "nats"},
	{"lifetime_dev_loss", "nats"},
}

// perLayer are the metrics of a traced run, reported by every workload.
var perLayer = []metricDef{
	{"loadgen.late_ms.max", "ms"},
	{"loadgen.heavy.sent", "count"},
	{"server.time_ms.p50", "ms"},
	{"server.self_ms.p50", "ms"},
	{"server.requests", "count"},
	{"net.wait_ms.p50", "ms"},
	{"engine.queue_ms.p50", "ms"},
	{"engine.coalesce_ms.p50", "ms"},
	{"engine.decode_ms.p50", "ms"},
	{"engine.rounds_per_req.mean", "count"},
	{"engine.round_us.mean", "us"},
	{"engine.streams_per_round.mean", "count"},
	{"engine.decode_gap_ratio", "ratio"},
	{"nn.flavor_step_us.r1", "us"},
	{"nn.flavor_step_us.r2", "us"},
	{"nn.flavor_step_us.r64", "us"},
	{"nn.lifetime_step_us.r1", "us"},
	{"nn.lifetime_step_us.r2", "us"},
	{"nn.lifetime_step_us.r64", "us"},
	{"mat.gate_gemm_us.r2", "us"},
	{"mat.gate_gemm_us.r64", "us"},
	{"mat.gate_gemm_flops.r2", "flop"},
	{"mat.gate_gemm_flops.r64", "flop"},
	{"mat.gate_gemm_bytes.r2", "B"},
	{"mat.gate_gemm_bytes.r64", "B"},
	{"mat.exp_ns_per_elem", "ns"},
	{"nn.softmax_ns", "ns"},
	{"nn.sigmoid_ns", "ns"},
	{"encode.ms.p50", "ms"},
	{"encode.bytes_per_req.mean", "B"},
	{"trace.vms_per_req.mean", "count"},
	{"fidelity.observe_us.mean", "us"},
	{"core.generate_ms", "ms"},
	{"core.train_arrival_s", "s"},
	{"core.train_flavor_s", "s"},
	{"core.train_lifetime_s", "s"},
	{"train.flavor_epoch_ms.p50", "ms"},
	{"train.lifetime_epoch_ms.p50", "ms"},
	{"nn.lstm_forward_ms", "ms"},
	{"nn.lstm_backward_ms", "ms"},
	{"nn.adam_step_ms", "ms"},
	{"train.gap_ratio", "ratio"},
	{"train.stage_sum_ratio", "ratio"},
	{"core.generate_batch_s", "s"},
	{"mc.vms_per_stream.mean", "count"},
	{"mc.peak_rss_mb", "MB"},
	{"mem.heap_inuse_mb", "MB"},
	{"gc.count", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads are the benchmark's traffic mixes. The rates are fixed
// constants, about 35% and 60% of the median capacity_rps measured at
// the commit that introduced the benchmark (serve-hour 279 req/s,
// serve-day 16.6 req/s on a 2-CPU shared host). At 75% the heavy phase
// overloaded whenever host contention slowed the server by a quarter,
// which on that host happened in a good share of runs.
var workloads = map[string]serveWorkload{
	// Decode is short, so coalescing, request handling and admission
	// make up much of the server's time.
	"serve-hour": {
		periods: 12, lightRPS: 98, heavyRPS: 167,
		lightShare: 0.25, heavyShare: 0.25, closedShare: 0.5,
		oracle: 48,
	},
	// Decode is nearly all of the server's time, at one or two rows per
	// fleet step.
	"serve-day": {
		periods: 288, lightRPS: 5.8, heavyRPS: 10,
		lightShare: 0.3, heavyShare: 0.2, closedShare: 0.3,
		oracle: 3,
	},
}

// env is what a run needs from its surroundings.
type env struct {
	traced  string // cmd/traced binary
	workdir string // scratch directory inside the checkout
	conns   int    // keep-alive connections and load-generator threads
	servers int    // servers started so far, for log names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and correctness findings and prints
// the human-readable lines as they come.
type report struct {
	out       io.Writer
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

func (r *report) notef(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// set records a metric and prints it.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notef("%-32s %14.6g %s", name, v, unit)
}

// problemf records a correctness failure.
func (r *report) problemf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.notef("FAIL %s", msg)
}

// count adds operations attempted and failed.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result builds the final JSON line from the metrics in defs. A missing
// or non-finite metric is an error: the run did not measure what it
// must.
func (r *report) result(defs []metricDef) (resultLine, error) {
	line := resultLine{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return line, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		if err := checkFinite(d.name, m.Value); err != nil {
			return line, err
		}
		line.Metrics[d.name] = m
	}
	return line, nil
}

// sourceID names the code under test: the git commit when the checkout
// is a repository, and always a digest of the Go sources.
func sourceID() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod":
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("commit=%s sources=sha256:%s", commit, hex.EncodeToString(h.Sum(nil))[:16])
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: serve-hour or serve-day")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Float64("seconds", 30, "measured seconds of load per run")
	traceRun := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	traced := flag.String("traced", "", "path of the cmd/traced binary")
	workdir := flag.String("workdir", ".bench_build", "directory for model files and server logs")
	flag.Parse()

	wl, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	case *traceRun != 0 && *traceRun != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds):
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	case *traced == "":
		fmt.Fprintf(os.Stderr, "perfbench: --traced is required\n")
		return 2
	}

	// The load generator uses at most one thread and one connection per
	// CPU.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{traced: *traced, workdir: dir, conns: nproc}

	r := newReport(os.Stdout)
	r.notef("perfbench workload=%s seed=%d seconds=%g trace=%d", *workload, *seed, *seconds, *traceRun)
	tracedProcs := "runtime default"
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		tracedProcs = "GOMAXPROCS=" + v
	}
	reproProcs := os.Getenv("REPRO_PROCS")
	if reproProcs == "" {
		reproProcs = "unset"
	}
	r.notef("host nproc=%d loadgen.gomaxprocs=%d traced.gomaxprocs=%s REPRO_PROCS=%s go=%s %s",
		nproc, runtime.GOMAXPROCS(0), tracedProcs, reproProcs, runtime.Version(), sourceID())
	r.notef("rates light=%g req/s heavy=%g req/s (fixed constants) periods=%d connections=%d",
		wl.lightRPS, wl.heavyRPS, wl.periods, e.conns)
	r.notef("served model: azure-like %d days, hidden %d, seed %d, %d epochs; offline: %d streams x %d periods; %d rounds",
		servedDays, servedHidden, servedSeed, servedEpochs, mcStreams, mcPeriods, rounds)

	defs := endToEnd
	if *traceRun == 1 {
		defs = perLayer
		err = tracedRun(e, wl, *seed, *seconds, r)
	} else {
		err = untracedRun(e, wl, *seed, *seconds, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := r.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.notef("%-32s %14.6g ratio (%d failed of %d attempted)", "error_ratio",
		float64(line.Failed)/float64(line.Attempted), line.Failed, line.Attempted)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %d of %d operations failed; %s\n",
			line.Failed, line.Attempted, strings.Join(r.problems, "; "))
		return 1
	}
	return 0
}
