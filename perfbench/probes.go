package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dbtf"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

const probeReps = 5

// timeReps returns the median wall seconds of probeReps calls of fn.
func timeReps(fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// layerProbes times direct calls into the tensor, partition and sumcache
// layers on input x (whose truth factors must be loaded), with n vertical
// partitions per unfolding.
func (r *run) layerProbes(x *planted, n int) error {
	v, err := timeReps(func() error {
		_, err := tensor.ReadAnyFile(x.path)
		return err
	})
	if err != nil {
		return err
	}
	r.set("tensor.read_s", v)
	v, _ = timeReps(func() error {
		for _, u := range x.x.UnfoldAll() {
			u.Recycle()
		}
		return nil
	})
	r.set("tensor.unfold_all_s", v)
	v, _ = timeReps(func() error {
		if e := tensor.ReconstructError(x.x, x.a, x.b, x.c); e != x.meta.TruthError {
			return fmt.Errorf("ReconstructError of the planted factors %d != %d", e, x.meta.TruthError)
		}
		return nil
	})
	r.set("tensor.reconstruct_error_s", v)

	var builds []float64
	for i := 0; i < probeReps; i++ {
		ux := x.x.UnfoldAll()
		start := time.Now()
		var ps []*partition.Partitioned
		for _, u := range ux {
			ps = append(ps, partition.Build(u, n))
		}
		builds = append(builds, time.Since(start).Seconds())
		for m, p := range ps {
			p.Release()
			ux[m].Recycle()
		}
	}
	r.set("partition.build_s", median(builds))

	var cache *sumcache.Cache
	v, _ = timeReps(func() error {
		if cache != nil {
			cache.Release()
		}
		cache = sumcache.NewFromFactor(x.b, sumcache.DefaultGroupBits)
		return nil
	})
	r.set("sumcache.build_s", v)
	r.set("sumcache.sum_delta_ns", sumDeltaNanos(cache, x.meta.Rank))
	cache.Release()
	return nil
}

// sumDeltaNanos times SumDelta over seeded random (mask, bit) pairs and
// returns nanoseconds per call.
func sumDeltaNanos(c *sumcache.Cache, rank int) float64 {
	const calls = 1 << 18
	rng := rand.New(rand.NewSource(5))
	masks := make([]uint64, calls)
	bits := make([]uint64, calls)
	full := uint64(1)<<rank - 1
	for i := range masks {
		bit := uint64(1) << rng.Intn(rank)
		masks[i], bits[i] = rng.Uint64()&full&^bit, bit
	}
	var d sumcache.Delta
	start := time.Now()
	for i := range masks {
		c.SumDelta(masks[i], bits[i], &d)
	}
	return float64(time.Since(start).Nanoseconds()) / calls
}

// tcpProbe measures the transport layer on a workload whose own loop does
// not use it: it starts loopback workers, times dials, and runs the
// workload's large job over them twice, the second time traced.
func (r *run) tcpProbe(ctx context.Context, x *planted, opts dbtf.Options, seed int64) (err error) {
	workers, err := startWorkers(machines())
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, workers.stop()) }()
	var dials []float64
	for i := 0; i < probeReps; i++ {
		d, err := workers.dial(ctx)
		if err != nil {
			return err
		}
		dials = append(dials, d.Seconds())
	}
	r.set("tcp.dial_s", median(dials))
	opts.Seed = seed
	opts.Workers = workers.addrs
	want, err := simFactorHash(ctx, x.x, opts)
	if err != nil {
		return err
	}
	refs := map[string]ref{}
	var apply, run, wire []float64
	for i := 0; i < 2; i++ {
		buf := &trace.Buffer{}
		if i == 1 {
			opts.Tracer = dbtf.NewTracer(buf)
		}
		a0, r0 := workers.snapshot()
		w0 := workers.wire.Load()
		res, err := dbtf.Factorize(ctx, x.x, opts)
		r.attempted++
		if err != nil {
			r.check(false, "tcp probe: %v", err)
			continue
		}
		a1, r1 := workers.snapshot()
		apply = append(apply, maxDelta(a0, a1))
		run = append(run, maxDelta(r0, r1))
		wire = append(wire, float64(workers.wire.Load()-w0))
		r.checkResult(refs, "tcp-probe", x.x, res)
		r.check(refs["tcp-probe"].hash == want, "tcp probe: factors %s != sim factors %s", refs["tcp-probe"].hash, want)
		if i == 1 {
			r.set("tcp.coord_wait_s", fold(buf.Events).shippedSeconds)
		}
	}
	r.set("tcp.worker_apply_s", median(apply))
	r.set("tcp.worker_run_s", median(run))
	r.set("tcp.wire_bytes", median(wire))
	return nil
}
