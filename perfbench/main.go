// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a single process, checks every output, and prints
// the workload's metrics as one JSON object on the last line of standard
// output. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"
)

// benchmarkFile lists the metrics a run prints: every end-to-end metric
// without tracing (--trace 0), every per-layer metric with it (--trace 1).
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readMetricSpecs(traced bool) ([]metricSpec, error) {
	js, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	if traced {
		return b.PerLayer, nil
	}
	return b.EndToEnd, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run.
type run struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	inputs  []*planted
	values  map[string]float64
	// attempted counts measured operations; failed counts the ones that
	// failed, were shed or lost, or failed an output check.
	attempted, failed int
	hostRef           []float64
	// setups and dials are the set-up and tcp dial samples.
	setups, dials []float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// check records one output check; a failed check is printed and counted.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		fmt.Printf("# CHECK FAILED: %s\n", fmt.Sprintf(format, args...))
	}
}

// note prints a provenance or diagnostic line; only the last line of
// standard output is the result.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func (r *run) input(name string) *planted {
	for _, p := range r.inputs {
		if p.meta.Name == name {
			return p
		}
	}
	panic("perfbench: no input " + name)
}

// smalls returns the workload's small tensors.
func (r *run) smalls() []*planted {
	var out []*planted
	for _, p := range r.inputs {
		if p.meta.Name != mainInput {
			out = append(out, p)
		}
	}
	return out
}

// hostRefKernel times a fixed kernel owned by the benchmark: sorting 2M
// int32s drawn from a fixed seed. It does not touch the program, so its
// drift between runs is the host's, not the code's.
func (r *run) hostRefKernel() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int32, 2_000_000)
	for i := range xs {
		xs[i] = rng.Int31()
	}
	start := time.Now()
	slices.Sort(xs)
	r.hostRef = append(r.hostRef, time.Since(start).Seconds())
}

func main() {
	wlName := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	flag.Parse()
	wl := findWorkload(*wlName)
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := execute(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !res.Correct {
		os.Exit(1)
	}
}

func execute(wl *workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	specs, err := readMetricSpecs(traced)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := ensureInputs(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	metas, err := readMetas(dir)
	if err != nil {
		return nil, err
	}
	note("workload=%s seed=%d seconds=%v trace=%v nproc=%d GOMAXPROCS=%d go=%s",
		wl.name, seed, seconds.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, m := range metas {
		note("input %s: dims=%v nnz=%d rank=%d factor_density=%g noise=+%g/-%g planted_error=%d planted_rel=%.4f",
			m.Name, m.Dims, m.NNZ, m.Rank, m.Density, m.Additive, m.Destructive, m.TruthError, m.truthRel())
	}
	r := &run{wl: wl, seed: seed, seconds: seconds, traced: traced, dir: dir, values: map[string]float64{}}
	ctx := context.Background()
	r.hostRefKernel()
	if err := runEngine(ctx, r); err != nil {
		return nil, err
	}
	r.hostRefKernel()
	r.set("host.ref_s", median(r.hostRef))
	note("host.ref_s=%.4f (samples %v)", median(r.hostRef), r.hostRef)
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range specs {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}
