package main

import (
	"context"
	"math/rand"
	"testing"

	"dbtf"
	"dbtf/internal/core"
	"dbtf/internal/serve"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, wantP int
		wantV    float64
	}{
		{100, 90, 90}, // p91 would leave only 9 samples above
		{26, 61, 16},
		{11, 9, 1},
		{5, 0, 5}, // too few samples: no percentile, the maximum
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		p, v := tail(xs)
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: tail = p%d %v, want p%d %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if p > 0 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, p)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func ev(typ trace.Type, stage int64, name string, wallMs int64) *trace.Event {
	e := trace.NewEvent(typ)
	e.Stage, e.Name, e.WallNanos = stage, name, wallMs*1e6
	return e
}

func TestFoldPairsSpansByWallTime(t *testing.T) {
	errv := int64(42)
	iterEnd := ev(trace.IterationEnd, -1, "", 60)
	iterEnd.Error = &errv
	evs := []*trace.Event{
		ev(trace.RunBegin, -1, "", 0),
		ev(trace.DriverBegin, -1, "unfold", 0),
		ev(trace.DriverEnd, -1, "unfold", 10),
		ev(trace.StageBegin, 0, "partition", 10),
		ev(trace.StageEnd, 0, "partition", 30),
		ev(trace.IterationBegin, -1, "", 30),
		ev(trace.DriverBegin, -1, "init", 30),
		ev(trace.DriverEnd, -1, "init", 32),
		ev(trace.StageBegin, 1, "build:A", 32),
		ev(trace.StageEnd, 1, "build:A", 35),
		ev(trace.StageBegin, 2, "eval:B", 35),
		ev(trace.StageEnd, 2, "eval:B", 45),
		ev(trace.DriverBegin, -1, "commit:A", 45),
		ev(trace.DriverEnd, -1, "commit:A", 46),
		ev(trace.StageBegin, 3, "total-error", 46),
		ev(trace.StageEnd, 3, "total-error", 50),
		ev(trace.DriverBegin, -1, "checkpoint", 50),
		ev(trace.DriverEnd, -1, "checkpoint", 59),
		iterEnd,
		ev(trace.RunEnd, -1, "", 60),
	}
	f := fold(evs)
	want := map[string]float64{
		"core.unfold_s": 0.010, "core.partition_s": 0.020, "core.init_s": 0.002,
		"core.build_s": 0.003, "core.eval_s": 0.010, "core.commit_s": 0.001,
		"core.total_error_s": 0.004,
	}
	for m, w := range want {
		if got := f.seconds[m]; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("%s = %v, want %v", m, got, w)
		}
	}
	if len(f.seconds) != len(want) {
		t.Errorf("unexpected metrics in %v (checkpoint must stay unattributed)", f.seconds)
	}
	if got := f.attributed(); got < 0.050-1e-9 || got > 0.050+1e-9 {
		t.Errorf("attributed = %v, want 0.050", got)
	}
	if f.shippedSeconds < 0.017-1e-9 || f.shippedSeconds > 0.017+1e-9 {
		t.Errorf("shippedSeconds = %v, want 0.017 (build, eval and total-error)", f.shippedSeconds)
	}
	if f.iterations != 1 || f.err != 42 {
		t.Errorf("iterations %d error %d, want 1 and 42", f.iterations, f.err)
	}
}

// TestFoldRealRun folds the events a real Factorize emits: every stage the
// benchmark reports is present and the iteration count and error agree
// with the result.
func TestFoldRealRun(t *testing.T) {
	p := generate(rand.New(rand.NewSource(1)), cubeSpec("x", 48, 4))
	buf := &trace.Buffer{}
	res, err := dbtf.Factorize(context.Background(), p.x, dbtf.Options{Rank: 4, Seed: 3, Tracer: dbtf.NewTracer(buf)})
	if err != nil {
		t.Fatal(err)
	}
	f := fold(buf.Events)
	for _, m := range coreStages {
		if f.seconds[m] <= 0 {
			t.Errorf("%s not folded from a real run: %v", m, f.seconds)
		}
	}
	if f.iterations != res.Iterations || f.err != res.Error {
		t.Errorf("fold: %d iterations error %d, result %d / %d", f.iterations, f.err, res.Iterations, res.Error)
	}
}

// plainHost implements transport.Host only.
type plainHost struct{}

func (plainHost) Apply(transport.StateKind, []byte) error     { return nil }
func (plainHost) RunTask(transport.Spec, int) ([]byte, error) { return nil, nil }

func TestTimedHostKeepsBatchCapability(t *testing.T) {
	if _, ok := transport.Host(core.NewWorkerThreads(1)).(transport.BatchHost); !ok {
		t.Fatal("core worker is no longer a BatchHost; the wrapper test below proves nothing")
	}
	if _, ok := timeHost(core.NewWorkerThreads(1), &hostTimes{}).(transport.BatchHost); !ok {
		t.Error("wrapping a BatchHost lost RunBatch: the tcp server would fall back to per-task RunTask")
	}
	if _, ok := timeHost(plainHost{}, &hostTimes{}).(transport.BatchHost); ok {
		t.Error("wrapping a plain Host claims RunBatch it cannot serve")
	}
}

// TestLoopbackWorkersMeasure runs a factorization over the benchmark's
// loopback workers: the timing wrapper and the counting listener see the
// work, and the factors equal the simulated backend's.
func TestLoopbackWorkersMeasure(t *testing.T) {
	w, err := startWorkers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.stop(); err != nil {
			t.Error(err)
		}
	}()
	p := generate(rand.New(rand.NewSource(2)), cubeSpec("x", 40, 4))
	opts := dbtf.Options{Rank: 4, Seed: 5, Workers: w.addrs}
	res, err := dbtf.Factorize(context.Background(), p.x, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simFactorHash(context.Background(), p.x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := serve.FactorHash(res.A, res.B, res.C); got != want {
		t.Errorf("tcp factors %s != sim %s", got, want)
	}
	apply, run := w.snapshot()
	for i := range apply {
		if apply[i] <= 0 || run[i] <= 0 {
			t.Errorf("worker %d: apply %d ns run %d ns, want both > 0", i, apply[i], run[i])
		}
	}
	if w.wire.Load() <= 0 {
		t.Error("counting listener saw no bytes")
	}
}

// touch allocates and writes n bytes, which are garbage once it returns.
func touch(n int) {
	block := make([]byte, n)
	for i := range block {
		block[i] = byte(i)
	}
}

func TestPeakRSSReset(t *testing.T) {
	touch(128 << 20)
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if before < 128 {
		t.Fatalf("peak RSS %.1f MiB after touching 128 MiB", before)
	}
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after > before-64 {
		t.Errorf("peak RSS %.1f MiB after reset, %.1f MiB before: the freed 128 MiB are still counted", after, before)
	}
}

func TestSameSpecsSeesAnyChange(t *testing.T) {
	specs := smallSpecs(rand.New(rand.NewSource(3)))
	metas := make([]tensorMeta, len(specs))
	for i, s := range specs {
		metas[i] = tensorMeta{plantedSpec: s, NNZ: 1}
	}
	if !sameSpecs(metas, specs) {
		t.Fatal("a cache made from the current specs was judged stale")
	}
	changed := append([]plantedSpec(nil), specs...)
	changed[5].Additive = 0.1
	if sameSpecs(metas, changed) {
		t.Error("a changed noise rate was not seen")
	}
	if sameSpecs(metas, specs[1:]) {
		t.Error("a dropped input was not seen")
	}
}
