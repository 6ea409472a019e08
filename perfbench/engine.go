package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"dbtf"
	"dbtf/internal/serve"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// machines is the engine workloads' machine count: Factorize's default,
// GOMAXPROCS, which is also the tcp workload's worker count.
func machines() int { return runtime.GOMAXPROCS(0) }

// mainInput names a workload's large planted tensor.
const mainInput = "x"

// smallSpecs are the small planted tensors every workload carries: the
// small job the client runs before each large one, and the serve probe's
// small jobs.
func smallSpecs(rng *rand.Rand) []plantedSpec {
	specs := make([]plantedSpec, 24)
	for i := range specs {
		specs[i] = plantedSpec{
			Name:    fmt.Sprintf("small%d", i),
			Dims:    [3]int{32 + rng.Intn(33), 32 + rng.Intn(33), 32 + rng.Intn(33)},
			Rank:    4,
			Density: 0.2, Additive: 0.05, Destructive: 0.05,
		}
	}
	return specs
}

func cubeSpec(name string, dim, rank int) plantedSpec {
	return plantedSpec{Name: name, Dims: [3]int{dim, dim, dim}, Rank: rank,
		Density: 0.1, Additive: 0.05, Destructive: 0.05}
}

// workload is one benchmark workload: a closed loop with one client.
type workload struct {
	name   string
	inputs func(rng *rand.Rand) []plantedSpec
	// opts are the Factorize options of the large job; Seed and Workers
	// are set per call.
	opts dbtf.Options
	// tcp runs the large job over loopback tcp workers.
	tcp bool
}

var workloads []*workload

func init() {
	engine := func(name string, dim, rank int, opts dbtf.Options, tcp bool) *workload {
		opts.Rank = rank
		return &workload{
			name: name,
			inputs: func(rng *rand.Rand) []plantedSpec {
				return append([]plantedSpec{cubeSpec(mainInput, dim, rank)}, smallSpecs(rng)...)
			},
			opts: opts,
			tcp:  tcp,
		}
	}
	workloads = []*workload{
		engine("planted-d512", 512, 10, dbtf.Options{}, false),
		engine("rank24-i10", 256, 24, dbtf.Options{MinIter: 10, MaxIter: 10}, false),
		engine("tcp-d256", 256, 10, dbtf.Options{}, true),
	}
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}

// ref is the first result seen for one job configuration.
type ref struct {
	hash string
	err  int64
}

// checkResult applies the output checks to one Factorize result: the
// error never increases across iterations, and the factors and error
// equal the first result of the same configuration in this run. The
// first result's Error is compared with tensor.ReconstructError
// recomputed here; later results with the same factor hash have the same
// recomputed error by construction.
func (r *run) checkResult(refs map[string]ref, key string, x *tensor.Tensor, res *dbtf.Result) {
	ie := res.IterationErrors
	for i := 1; i < len(ie); i++ {
		r.check(ie[i] <= ie[i-1], "%s: iteration error rose from %d to %d", key, ie[i-1], ie[i])
	}
	r.check(len(ie) > 0 && ie[len(ie)-1] == res.Error, "%s: last iteration error %v != Error %d", key, ie, res.Error)
	h := serve.FactorHash(res.A, res.B, res.C)
	if prev, ok := refs[key]; ok {
		r.check(prev.hash == h && prev.err == res.Error,
			"%s: factors %s error %d differ from the run's first call %s error %d", key, h, res.Error, prev.hash, prev.err)
		return
	}
	e := tensor.ReconstructError(x, res.A, res.B, res.C)
	r.check(e == res.Error, "%s: Result.Error %d != recomputed %d", key, res.Error, e)
	refs[key] = ref{hash: h, err: res.Error}
}

// A run times set-ups before its loop, setupReps of them, and then once
// every 1/setupSpread of the measured time between rounds, so that the
// samples see the same host as the loop's calls do.
const (
	setupReps   = 5
	setupSpread = 30
)

// setupEngine loads the inputs the run uses, and for tcp starts the
// loopback workers, untimed; then it times setupReps set-ups.
func setupEngine(ctx context.Context, r *run, metas []tensorMeta) (*loopbackWorkers, error) {
	var err error
	if r.inputs, err = loadTensors(r.dir, metas); err != nil {
		return nil, err
	}
	var workers *loopbackWorkers
	if r.wl.tcp {
		if workers, err = startWorkers(machines()); err != nil {
			return nil, err
		}
	}
	for n := 0; n < setupReps; n++ {
		if err := r.setupSample(ctx, metas); err != nil {
			if workers != nil {
				err = errors.Join(err, workers.stop())
			}
			return nil, err
		}
	}
	return workers, nil
}

// setupSample times one set-up: it loads every input through the
// program's load path, and for tcp starts loopback workers and dials them
// once. The heap is collected before the set-up, so every sample starts
// from the same heap, the run's own inputs and nothing else; the set-up
// is released and collected after, so its garbage does not land in the
// next call.
func (r *run) setupSample(ctx context.Context, metas []tensorMeta) error {
	runtime.GC()
	start := time.Now()
	if _, err := loadTensors(r.dir, metas); err != nil {
		return err
	}
	var workers *loopbackWorkers
	if r.wl.tcp {
		var err error
		if workers, err = startWorkers(machines()); err != nil {
			return err
		}
		d, err := workers.dial(ctx)
		if err != nil {
			return errors.Join(err, workers.stop())
		}
		r.dials = append(r.dials, d.Seconds())
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	if workers != nil {
		if err := workers.stop(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// callStats collects the per-call measurements of the engine loop.
type callStats struct {
	untraced, traced []float64 // Factorize wall seconds
	jobSmall         []float64
	fits             []float64
	stages           map[string][]float64
	unattributed     []float64
	iterations, errs []float64
	sim              []float64
	shuffle, bcast   []float64
	collect          []float64
	apply, workerRun []float64
	wire, coordWait  []float64
}

func (cs *callStats) addStats(res *dbtf.Result) {
	cs.sim = append(cs.sim, res.SimTime.Seconds())
	cs.shuffle = append(cs.shuffle, float64(res.Stats.ShuffledBytes))
	cs.bcast = append(cs.bcast, float64(res.Stats.BroadcastBytes))
	cs.collect = append(cs.collect, float64(res.Stats.CollectedBytes))
}

// addTrace records one traced call of wall seconds.
func (cs *callStats) addTrace(wall float64, f folded) {
	cs.traced = append(cs.traced, wall)
	for _, m := range coreStages {
		cs.stages[m] = append(cs.stages[m], f.seconds[m])
	}
	cs.unattributed = append(cs.unattributed, wall-f.attributed())
	cs.iterations = append(cs.iterations, float64(f.iterations))
	cs.errs = append(cs.errs, float64(f.err))
}

// runEngine is the closed loop every workload runs: one client runs
// one job at a time. Each round is a small job (read a small tensor file,
// factorize it) followed by a large job (read the workload's tensor file,
// factorize it). Every second large job repeats the previous one's
// configuration, so each configuration is checked for determinism; the
// configurations differ in their Seed, so the fit is averaged over many
// initializations.
func runEngine(ctx context.Context, r *run) (err error) {
	metas, err := readMetas(r.dir)
	if err != nil {
		return err
	}
	workers, err := setupEngine(ctx, r, metas)
	if err != nil {
		return err
	}
	if workers != nil {
		defer func() { err = errors.Join(err, workers.stop()) }()
	}
	x := r.input(mainInput)
	if err := loadTruth(r.dir, x); err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	smalls := r.smalls()
	cfgRng := rand.New(rand.NewSource(r.seed*7919 + 3))
	var cfgs []int64
	refs := map[string]ref{}
	simHash := map[int64]string{}
	cs := &callStats{stages: map[string][]float64{}}
	start := time.Now()
	lastSetup := start
	halfway := false
	for i := 0; time.Since(start) < r.seconds || i%2 == 1; i++ {
		if !halfway && time.Since(start) > r.seconds/2 {
			r.hostRefKernel()
			halfway = true
		}
		if time.Since(lastSetup) >= r.seconds/setupSpread {
			if err := r.setupSample(ctx, metas); err != nil {
				return err
			}
			lastSetup = time.Now()
		}
		k := i / 2
		if k == len(cfgs) {
			cfgs = append(cfgs, cfgRng.Int63n(1<<40))
		}
		sj := smalls[i%len(smalls)]
		t0 := time.Now()
		xs, err := tensor.ReadAnyFile(sj.path)
		if err != nil {
			return err
		}
		sres, err := dbtf.Factorize(ctx, xs, dbtf.Options{Rank: sj.meta.Rank, Seed: int64(i % len(smalls))})
		r.attempted++
		if err != nil {
			r.check(false, "small job %s: %v", sj.meta.Name, err)
			continue
		}
		cs.jobSmall = append(cs.jobSmall, time.Since(t0).Seconds())
		r.checkResult(refs, sj.meta.Name, xs, sres)

		opts := r.wl.opts
		opts.Seed = cfgs[k]
		var buf *trace.Buffer
		if r.traced && i%2 == 1 {
			buf = &trace.Buffer{}
			opts.Tracer = dbtf.NewTracer(buf)
		}
		var apply0, run0 []int64
		var wire0 int64
		if workers != nil {
			opts.Workers = workers.addrs
			apply0, run0 = workers.snapshot()
			wire0 = workers.wire.Load()
		}
		lx, err := tensor.ReadAnyFile(x.path)
		if err != nil {
			return err
		}
		t3 := time.Now()
		res, err := dbtf.Factorize(ctx, lx, opts)
		t4 := time.Now()
		r.attempted++
		if err != nil {
			r.check(false, "large job seed %d: %v", opts.Seed, err)
			continue
		}
		wall := t4.Sub(t3).Seconds()
		key := fmt.Sprintf("large-seed%d", opts.Seed)
		if _, seen := refs[key]; !seen {
			cs.fits = append(cs.fits, res.RelativeError/x.meta.truthRel())
		}
		r.checkResult(refs, key, lx, res)
		if workers != nil {
			apply1, run1 := workers.snapshot()
			cs.apply = append(cs.apply, maxDelta(apply0, apply1))
			cs.workerRun = append(cs.workerRun, maxDelta(run0, run1))
			cs.wire = append(cs.wire, float64(workers.wire.Load()-wire0))
			if _, ok := simHash[opts.Seed]; !ok {
				h, err := simFactorHash(ctx, lx, opts)
				if err != nil {
					return err
				}
				simHash[opts.Seed] = h
			}
			got := serve.FactorHash(res.A, res.B, res.C)
			r.check(got == simHash[opts.Seed], "%s: tcp factors %s != sim factors %s", key, got, simHash[opts.Seed])
		}
		cs.addStats(res)
		if buf == nil {
			cs.untraced = append(cs.untraced, wall)
			continue
		}
		f := fold(buf.Events)
		cs.addTrace(wall, f)
		cs.coordWait = append(cs.coordWait, f.shippedSeconds)
		r.check(f.iterations == res.Iterations && f.err == res.Error,
			"%s: trace folds %d iterations error %d, result says %d / %d", key, f.iterations, f.err, res.Iterations, res.Error)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", peak)
	r.set("setup_s", median(r.setups))
	note("setup_s: %d set-ups, median %.4f s, samples %v", len(r.setups), median(r.setups), r.setups)
	if r.wl.tcp {
		r.set("tcp.dial_s", median(r.dials))
	}
	note("large jobs %d over %d configurations, small jobs %d", len(cs.untraced)+len(cs.traced), len(cfgs), len(cs.jobSmall))
	r.reportCalls(cs)
	if !r.traced {
		return nil
	}
	if err := r.layerProbes(x, machines()); err != nil {
		return err
	}
	if workers == nil {
		if err := r.tcpProbe(ctx, x, r.wl.opts, cfgs[0]); err != nil {
			return err
		}
	}
	return r.serveProbe(ctx, x, r.wl.opts)
}

// simFactorHash runs opts on the simulated backend with the same machine
// count as its Workers and returns the factor hash.
func simFactorHash(ctx context.Context, x *tensor.Tensor, opts dbtf.Options) (string, error) {
	opts.Machines = len(opts.Workers)
	opts.Workers = nil
	opts.Tracer = nil
	res, err := dbtf.Factorize(ctx, x, opts)
	if err != nil {
		return "", fmt.Errorf("sim reference run: %w", err)
	}
	return serve.FactorHash(res.A, res.B, res.C), nil
}

// reportCalls turns the loop's samples into metrics.
func (r *run) reportCalls(cs *callStats) {
	all := append(append([]float64(nil), cs.untraced...), cs.traced...)
	r.setTimes("factorize", "factorize_s", "factorize_tail_s", all)
	r.set("fit_ratio", mean(cs.fits))
	note("fit_ratio over %d configurations", len(cs.fits))
	r.setTimes("small jobs", "job_p50_s.small", "job_tail_s.small", cs.jobSmall)
	r.set("cluster.sim_s", median(cs.sim))
	r.set("cluster.shuffle_bytes", median(cs.shuffle))
	r.set("cluster.broadcast_bytes", median(cs.bcast))
	r.set("cluster.collect_bytes", median(cs.collect))
	if !r.traced {
		return
	}
	for _, m := range coreStages {
		r.set(m, median(cs.stages[m]))
	}
	r.set("core.unattributed_s", median(cs.unattributed))
	r.set("core.iterations", median(cs.iterations))
	r.set("core.error", median(cs.errs))
	r.set("trace.overhead_s", median(cs.traced)-median(cs.untraced))
	if len(cs.apply) > 0 {
		r.set("tcp.worker_apply_s", median(cs.apply))
		r.set("tcp.worker_run_s", median(cs.workerRun))
		r.set("tcp.wire_bytes", median(cs.wire))
		r.set("tcp.coord_wait_s", median(cs.coordWait))
	}
	note("traced %d calls (median %.4f s), untraced %d (median %.4f s)",
		len(cs.traced), median(cs.traced), len(cs.untraced), median(cs.untraced))
}

// setTimes reports the median and the tail of a timing sample, and prints
// which percentile the tail is and over how many samples.
func (r *run) setTimes(what, p50Name, tailName string, xs []float64) {
	r.set(p50Name, median(xs))
	p, v := tail(xs)
	r.set(tailName, v)
	note("%s: %d calls, median %.4f s, %s is p%d = %.4f s", what, len(xs), median(xs), tailName, p, v)
}
