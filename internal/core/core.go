// Package core implements DBTF, the distributed Boolean CP decomposition
// algorithm of the paper (Algorithms 2–5).
//
// Given a binary tensor X ∈ B^{I×J×K} and a rank R, Decompose finds binary
// factor matrices A, B, C minimizing |X ⊕ ⋁_r a_:r ∘ b_:r ∘ c_:r| with the
// alternating framework of Algorithm 1, executing each factor update as a
// set of partition-parallel stages on a cluster:
//
//   - the three unfolded tensors are vertically partitioned once and never
//     reshuffled (Section III-B, Algorithm 3);
//   - each partition generates the slice of the Khatri–Rao product it
//     needs from broadcast factor matrices and serves Boolean row
//     summations from cache tables built per update (Section III-C,
//     Algorithm 5);
//   - factor matrices are updated column by column: partitions evaluate,
//     for every row, the reconstruction error with the current column entry
//     set to 0 and to 1, the driver collects the errors and commits the
//     winning values (Section III-A, Algorithm 4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"time"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
	"dbtf/internal/topfiber"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// InitScheme selects how the initial factor matrices are drawn.
type InitScheme int

const (
	// InitFiberSample seeds every component r from the fiber cross of a
	// uniformly sampled nonzero (i₀,j₀,k₀): a_:r, b_:r and c_:r become the
	// indicator vectors of the mode-1, mode-2 and mode-3 fibers through
	// that nonzero. This is the default: it keeps components anchored to
	// the data, which the greedy column update requires (see InitRandom).
	InitFiberSample InitScheme = iota
	// InitRandom draws every factor entry independently at the configured
	// InitDensity, as Algorithm 2 states literally. On sparse tensors this
	// collapses to the all-zero factorization: a column entry is set only
	// when the region newly covered by its component is majority-ones,
	// which holds for a random component only at tensor density > 0.5.
	// Kept for the initialization ablation.
	InitRandom
	// InitTopFiber seeds the components greedily from the top fibers of
	// the tensor (topFiberM): component r grows from the mode-1 fiber
	// covering the most nonzeros outside components 0..r-1. Deterministic
	// in the tensor and rank alone — it consumes no randomness, so the
	// Seed is irrelevant and InitialSets > 1 is rejected (every set would
	// be identical). See the topfiber package.
	InitTopFiber
)

// String returns the flag spelling of the scheme ("fiber", "random",
// "topfiber"), or a numeric form for unknown values.
func (s InitScheme) String() string {
	switch s {
	case InitFiberSample:
		return "fiber"
	case InitRandom:
		return "random"
	case InitTopFiber:
		return "topfiber"
	default:
		return fmt.Sprintf("InitScheme(%d)", int(s))
	}
}

// ParseInitScheme parses the flag spelling of an initialization scheme.
// The empty string selects the default (InitFiberSample).
func ParseInitScheme(s string) (InitScheme, error) {
	switch s {
	case "", "fiber":
		return InitFiberSample, nil
	case "random":
		return InitRandom, nil
	case "topfiber":
		return InitTopFiber, nil
	default:
		return 0, fmt.Errorf("core: unknown init scheme %q (want fiber, random or topfiber)", s)
	}
}

// Options configures a decomposition. The zero value of every field selects
// the default documented on the field.
type Options struct {
	// Rank is the number of components R. Required; 1 ≤ R ≤ 64.
	Rank int
	// MaxIter is the maximum number of iterations T. Default 10 (the
	// paper's default).
	MaxIter int
	// MinIter disables the convergence check before this many iterations.
	// Default 1; the runtime experiments set MinIter = MaxIter so every
	// method performs the same number of full update sweeps.
	MinIter int
	// InitialSets is the number of random initial factor sets L evaluated
	// in the first iteration, of which the best is kept (Algorithm 2,
	// lines 5-8). The zero value is the named sentinel InitialSetsAuto,
	// which selects the paper's default of 1; requesting L = 0 sets
	// outright is impossible and anything negative errors. InitTopFiber
	// rejects L > 1: the scheme is deterministic, so every set would be
	// identical and L−1 first-iteration sweeps would be wasted.
	InitialSets int
	// Partitions is the number of vertical partitions N per unfolded
	// tensor. Default: the cluster's machine count.
	Partitions int
	// GroupBits is the cache-splitting threshold V (Lemma 2). Default 15
	// (the paper's default).
	GroupBits int
	// Tolerance stops the iteration when the reconstruction error improves
	// by at most this much between consecutive iterations. Default 0: stop
	// when the error stops strictly decreasing.
	Tolerance int64
	// Init selects the initialization scheme. Default InitFiberSample.
	Init InitScheme
	// InitDensity is the density of the random initial factor matrices
	// under InitRandom, and meaningful only there: a non-zero value with
	// any other scheme is rejected instead of silently ignored. The zero
	// value is the named sentinel InitDensityAuto, which selects
	// (density(X)/R)^(1/3) clamped to [0.01, 0.5] — the expected density
	// of the initial reconstruction then matches the tensor's. An
	// explicit density of exactly 0 (the all-zero factorization) is
	// impossible to request; the sentinel owns that value.
	InitDensity float64
	// Seed seeds the deterministic random initialization.
	Seed int64
	// NoCache disables the row-summation cache and recomputes every
	// Boolean row summation from the factor columns (ablation of Section
	// III-C; DBTF proper always caches).
	NoCache bool
	// Horizontal switches to horizontal (rank-dimension) partitioning of
	// the Khatri–Rao product, the strawman design Section III-D argues
	// against: every row summation then requires combining partial results
	// across partitions through the driver.
	Horizontal bool
	// CheckpointDir, when non-empty, enables iteration-level durable
	// checkpointing: after every CheckpointEvery completed iterations (and
	// at the final one) a versioned snapshot of the factor matrices,
	// iteration state, and RNG stream state is written atomically to
	// CheckpointDir/CheckpointFile, so a killed run can be resumed
	// bit-identically with Resume.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period k in iterations. Default 1.
	// Must be >= 1; meaningful only with CheckpointDir.
	CheckpointEvery int
	// Resume, when true, loads the checkpoint in CheckpointDir and
	// continues from it instead of initializing; the checkpoint's config
	// fingerprint must match this run's. A missing checkpoint file starts
	// a fresh run. Requires CheckpointDir.
	Resume bool
	// Preempt, when non-nil, is polled once per completed iteration at the
	// iteration boundary. Returning true evicts the run: the boundary's
	// state is written as a durable checkpoint (whether or not the period
	// was due) and Decompose returns an error wrapping ErrPreempted. A
	// preempted run resumed with Resume continues bit-identically to one
	// that was never interrupted — this is the eviction/timeslicing hook of
	// the job server. A run that just converged or completed its final
	// iteration finishes instead of yielding. Requires CheckpointDir.
	Preempt func() bool
	// Trace, when non-nil, receives human-readable progress lines.
	Trace func(format string, args ...any)
}

// Named sentinels for the Options fields whose zero value requests a
// computed default. They make "use the default" an explicit, spellable
// request instead of a silent mutation of a zero the caller may have
// meant literally: an impossible literal request (L = 0 initial sets, a
// density-0 random init) has no spelling at all.
const (
	// InitialSetsAuto requests the default number of initial sets (1).
	InitialSetsAuto = 0
	// InitDensityAuto requests the density-matched initial density under
	// InitRandom; see Options.InitDensity.
	InitDensityAuto = 0.0
)

func (o *Options) withDefaults(x *tensor.Tensor, machines int) (Options, error) {
	opt := *o
	if opt.Rank < 1 || opt.Rank > boolmat.MaxRank {
		return opt, fmt.Errorf("core: rank %d outside [1,%d]", opt.Rank, boolmat.MaxRank)
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10
	}
	if opt.MaxIter < 1 {
		return opt, fmt.Errorf("core: MaxIter %d < 1", opt.MaxIter)
	}
	if opt.MinIter == 0 {
		opt.MinIter = 1
	}
	if opt.MinIter < 1 || opt.MinIter > opt.MaxIter {
		return opt, fmt.Errorf("core: MinIter %d outside [1,%d]", opt.MinIter, opt.MaxIter)
	}
	switch {
	case opt.Init == InitFiberSample || opt.Init == InitRandom || opt.Init == InitTopFiber:
	default:
		return opt, fmt.Errorf("core: unknown init scheme %d", int(opt.Init))
	}
	if opt.InitialSets == InitialSetsAuto {
		opt.InitialSets = 1
	}
	if opt.InitialSets < 1 {
		return opt, fmt.Errorf("core: InitialSets %d < 1", opt.InitialSets)
	}
	if opt.Init == InitTopFiber && opt.InitialSets > 1 {
		return opt, fmt.Errorf("core: InitialSets %d > 1 is meaningless with the deterministic topfiber init (every set would be identical)", opt.InitialSets)
	}
	if opt.Partitions == 0 {
		opt.Partitions = machines
	}
	if opt.Partitions < 1 {
		return opt, fmt.Errorf("core: Partitions %d < 1", opt.Partitions)
	}
	if opt.GroupBits == 0 {
		opt.GroupBits = sumcache.DefaultGroupBits
	}
	if opt.GroupBits < 1 {
		return opt, fmt.Errorf("core: GroupBits %d < 1", opt.GroupBits)
	}
	if opt.Tolerance < 0 {
		return opt, fmt.Errorf("core: Tolerance %d < 0", opt.Tolerance)
	}
	if opt.Init != InitRandom {
		// InitDensity parameterizes only the random scheme. Rejecting it
		// elsewhere (rather than ignoring it) also keeps the config
		// fingerprint honest: an unused parameter must not be auto-filled
		// from the tensor's density and then hashed.
		if opt.InitDensity != InitDensityAuto {
			return opt, fmt.Errorf("core: InitDensity %v is only meaningful with InitRandom (scheme is %v)", opt.InitDensity, opt.Init)
		}
	} else {
		if opt.InitDensity == InitDensityAuto {
			d := math.Cbrt(x.Density() / float64(opt.Rank))
			opt.InitDensity = math.Min(0.5, math.Max(0.01, d))
		}
		if opt.InitDensity < 0 || opt.InitDensity > 1 {
			return opt, fmt.Errorf("core: InitDensity %v outside [0,1]", opt.InitDensity)
		}
	}
	if opt.CheckpointEvery < 0 {
		return opt, fmt.Errorf("core: CheckpointEvery %d < 0", opt.CheckpointEvery)
	}
	if opt.CheckpointDir == "" {
		if opt.Resume {
			return opt, errors.New("core: Resume requires CheckpointDir")
		}
		if opt.CheckpointEvery > 0 {
			return opt, errors.New("core: CheckpointEvery requires CheckpointDir")
		}
		if opt.Preempt != nil {
			return opt, errors.New("core: Preempt requires CheckpointDir (eviction resumes from the checkpoint)")
		}
	} else if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 1
	}
	return opt, nil
}

// ErrPreempted is returned (wrapped) by Decompose when Options.Preempt
// evicted the run at an iteration boundary. The boundary's state was
// durably checkpointed first, so rerunning with Resume continues the run
// bit-identically; nothing about the run failed. Callers detect it with
// errors.Is.
var ErrPreempted = errors.New("core: run preempted at iteration boundary")

// Result reports the outcome of a decomposition.
type Result struct {
	// A, B, C are the binary factor matrices (I×R, J×R, K×R).
	A, B, C *boolmat.FactorMatrix
	// Error is the final Boolean reconstruction error |X ⊕ X̂|.
	Error int64
	// Iterations is the number of full iterations executed.
	Iterations int
	// Converged reports whether the error-improvement criterion stopped
	// the iteration before MaxIter.
	Converged bool
	// InitialErrors holds the error of each of the L initial sets after
	// the first iteration.
	InitialErrors []int64
	// IterationErrors holds the reconstruction error of the kept factor
	// set after every iteration; the greedy column commits make it
	// monotonically non-increasing.
	IterationErrors []int64
	// Stats snapshots the cluster's traffic counters after the run.
	Stats cluster.Stats
	// SimTime is the simulated elapsed time on the cluster's machines.
	SimTime time.Duration
	// WallTime is the real elapsed time of the run.
	WallTime time.Duration
}

// Decompose runs DBTF (Algorithm 2) on the given cluster. The context
// bounds the run: cancellation or deadline expiry is checked between
// stages and surfaces as the context's error.
func Decompose(ctx context.Context, x *tensor.Tensor, cl *cluster.Cluster, opts Options) (*Result, error) {
	if x == nil {
		return nil, errors.New("core: nil tensor")
	}
	i, j, k := x.Dims()
	if i == 0 || j == 0 || k == 0 {
		return nil, fmt.Errorf("core: empty tensor %dx%dx%d", i, j, k)
	}
	opt, err := opts.withDefaults(x, cl.Machines())
	if err != nil {
		return nil, err
	}

	//dbtf:allow-nondeterministic wall-clock reporting only (Result.WallTime); no result depends on it
	start := time.Now()
	cl.ResetClock()
	d := &decomposition{ctx: ctx, rootCtx: ctx, x: x, cl: cl, opt: opt, remote: cl.Remote(), reg: newRegistries(cl.Machines())}
	if d.remote {
		if opt.Horizontal {
			// Horizontal partitioning routes every row summation through
			// the driver mid-stage — a chatty pattern the remote protocol
			// deliberately does not speak (the ablation argues against it).
			return nil, errors.New("core: horizontal partitioning requires the simulated backend")
		}
	}

	// Run span: the RunEnd snapshot is the Stats accumulated during this
	// run (diffed against the entry snapshot, so a reused cluster folds
	// correctly), which the trace validator compares against the fold of
	// every event in between. The deferred end also closes a run aborted by
	// an error, including its open iteration span, so even a failed run
	// leaves a structurally valid trace.
	tr := cl.Tracer()
	statsBefore := cl.Stats()
	if tr.Enabled() {
		ev := trace.NewEvent(trace.RunBegin)
		ev.Name = fmt.Sprintf("dbtf rank=%d", opt.Rank)
		ev.Machines = cl.Machines()
		ev.SimNanos = cl.SimElapsed().Nanoseconds()
		tr.Emit(ev)
		defer func() {
			if d.openIter > 0 {
				iev := trace.NewEvent(trace.IterationEnd)
				iev.Iteration = d.openIter
				iev.SimNanos = cl.SimElapsed().Nanoseconds()
				tr.Emit(iev)
			}
			eev := trace.NewEvent(trace.RunEnd)
			eev.SimNanos = cl.SimElapsed().Nanoseconds()
			delta := cl.Stats().TraceDelta().Sub(statsBefore.TraceDelta())
			eev.Delta = &delta
			tr.Emit(eev)
		}()
	}

	// Checkpointing: the fingerprint binds a checkpoint to this exact
	// configuration and tensor, and resume loads and validates the latest
	// snapshot before any distributed work starts — and before anything
	// is shipped to remote executors.
	checkpointing := opt.CheckpointDir != ""
	if checkpointing {
		d.fp = fingerprint(x, opt, cl.Machines())
	}
	var resumed *checkpoint
	if opt.Resume {
		ck, err := readCheckpoint(opt.CheckpointDir, d.fp)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			// A v2 checkpoint records its init configuration readably, so a
			// changed init scheme gets a targeted error before the opaque
			// fingerprint check. This matters for the legacy un-namespaced
			// fallback file: continuing it under a different init would not
			// be bit-identical to any uninterrupted run.
			if ck.Version >= checkpointV2 {
				if ck.Init != opt.Init {
					return nil, fmt.Errorf("core: checkpoint was written with init scheme %v, run uses %v; resume requires the same init scheme",
						ck.Init, opt.Init)
				}
				if ck.InitialSets != opt.InitialSets {
					return nil, fmt.Errorf("core: checkpoint was written with InitialSets %d, run uses %d; resume requires the same init configuration",
						ck.InitialSets, opt.InitialSets)
				}
				if ck.InitDensity != opt.InitDensity {
					return nil, fmt.Errorf("core: checkpoint was written with InitDensity %v, run uses %v; resume requires the same init configuration",
						ck.InitDensity, opt.InitDensity)
				}
			}
			if ck.Fingerprint != d.fp {
				return nil, fmt.Errorf("core: checkpoint fingerprint %#x does not match run fingerprint %#x (config or tensor changed)",
					ck.Fingerprint, d.fp)
			}
			for _, f := range []struct {
				name string
				m    *boolmat.FactorMatrix
				rows int
			}{{"A", ck.A, i}, {"B", ck.B, j}, {"C", ck.C, k}} {
				if f.m.Rows() != f.rows || f.m.Rank() != opt.Rank {
					return nil, fmt.Errorf("core: checkpoint factor %s is %dx%d, want %dx%d",
						f.name, f.m.Rows(), f.m.Rank(), f.rows, opt.Rank)
				}
			}
			if ck.Iteration > opt.MaxIter {
				return nil, fmt.Errorf("core: checkpoint iteration %d > MaxIter %d", ck.Iteration, opt.MaxIter)
			}
			resumed = ck
		}
	}

	// Machine-loss recovery: when the cluster loses a machine, its share
	// of the cached partitions is re-shipped to the survivors and its
	// cache registry dies with it (survivors rebuild lazily on first use).
	d.cl.OnMachineLoss(d.machineLost)
	defer d.cl.OnMachineLoss(nil)
	if err := d.partitionAll(); err != nil {
		return nil, err
	}
	// Every stage joins its task goroutines (including speculative backups)
	// before returning, so when Decompose returns nothing can still touch
	// the partition arenas and they go back to the slab pool.
	defer func() {
		for _, p := range d.px {
			if p != nil {
				p.Release()
			}
		}
	}()
	if d.remote {
		// Ship each executor its own share of the partitionings just
		// built — Lemma 6's one-off distribution over the real socket. The
		// transport keeps every blob, so a rejoining machine gets its own
		// replayed and a ring successor adopts a lost machine's.
		if err := cl.PushSetup(ctx, encodeSetups(d.px, opt, cl.Machines())); err != nil {
			return nil, err
		}
	}

	src := newCountingSource(opt.Seed)
	rng := rand.New(src)
	res := &Result{}
	var a, b, c *boolmat.FactorMatrix
	var prevErr int64

	// preempt is the eviction poll at the boundary of completed iteration
	// t: a run that just converged or finished its last iteration is about
	// to return its result and is never evicted. When the hook fires, the
	// boundary's state is checkpointed (unless the periodic write above
	// already did) so a Resume continues bit-identically.
	preempt := func(t int, wrote bool) (bool, error) {
		if opt.Preempt == nil || res.Converged || t >= opt.MaxIter || !opt.Preempt() {
			return false, nil
		}
		if !wrote {
			if err := d.writeCheckpointStage(res, a, b, c, prevErr, src.n); err != nil {
				return false, err
			}
		}
		return true, nil
	}

	if resumed != nil {
		// The RNG is consumed only by initialization, which the resumed
		// run already performed; fast-forwarding by the recorded draw
		// count restores the identical stream state.
		src.fastForward(resumed.RNGDraws)
		a, b, c = resumed.A, resumed.B, resumed.C
		prevErr = resumed.PrevErr
		res.InitialErrors = resumed.InitialErrors
		res.IterationErrors = resumed.IterationErrors
		res.Iterations = resumed.Iteration
		res.Converged = resumed.Converged
		d.trace("resumed from checkpoint: iteration %d, error %d", res.Iterations, prevErr)
	} else {
		// First iteration: try L random initial sets and keep the best
		// (Algorithm 2, lines 5-8).
		d.beginIteration(1)
		type set struct {
			a, b, c *boolmat.FactorMatrix
			err     int64
		}
		best := set{err: math.MaxInt64}
		for l := 0; l < opt.InitialSets; l++ {
			// Drawing the initial factors is driver-side work like the
			// unfold: a named span charges its wall time to the driver
			// section, so per-stage attribution sees the init scheme's cost
			// (topfiber's data passes are not free, just near-linear).
			var ia, ib, ic *boolmat.FactorMatrix
			if err := d.cl.DriverNamed(d.ctx, "init", func() {
				ia, ib, ic = initialSet(rng, x, opt)
			}); err != nil {
				return nil, err
			}
			s := set{a: ia, b: ib, c: ic}
			if err := d.updateFactors(s.a, s.b, s.c); err != nil {
				return nil, err
			}
			e, err := d.totalError(s.a, s.b, s.c)
			if err != nil {
				return nil, err
			}
			s.err = e
			res.InitialErrors = append(res.InitialErrors, e)
			d.trace("initial set %d/%d: error %d", l+1, opt.InitialSets, e)
			if e < best.err {
				best = s
			}
		}
		a, b, c, prevErr = best.a, best.b, best.c, best.err
		if opt.InitialSets > 1 {
			// Losing sets' caches reference discarded factor matrices; drop
			// them. (With a single set the registry's entries stay live: the
			// cache totalError built over b serves iteration 2's A-update.)
			for _, r := range d.reg {
				r.clearRelease()
			}
		}
		res.Iterations = 1
		res.IterationErrors = append(res.IterationErrors, prevErr)
		wrote := checkpointing && (1%opt.CheckpointEvery == 0 || opt.MaxIter == 1)
		if wrote {
			if err := d.writeCheckpointStage(res, a, b, c, prevErr, src.n); err != nil {
				return nil, err
			}
		}
		stop, err := preempt(1, wrote)
		if err != nil {
			return nil, err
		}
		d.endIteration(1, prevErr, 0)
		if stop {
			return nil, fmt.Errorf("%w (after iteration 1)", ErrPreempted)
		}
	}

	for t := res.Iterations + 1; t <= opt.MaxIter && !res.Converged; t++ {
		d.beginIteration(t)
		if err := d.updateFactors(a, b, c); err != nil {
			return nil, err
		}
		e, err := d.totalError(a, b, c)
		if err != nil {
			return nil, err
		}
		res.Iterations = t
		res.IterationErrors = append(res.IterationErrors, e)
		d.trace("iteration %d: error %d", t, e)
		if t >= opt.MinIter && prevErr-e <= opt.Tolerance {
			res.Converged = true
		}
		improvement := prevErr - e
		prevErr = e
		wrote := checkpointing && (t%opt.CheckpointEvery == 0 || res.Converged || t == opt.MaxIter)
		if wrote {
			if err := d.writeCheckpointStage(res, a, b, c, prevErr, src.n); err != nil {
				return nil, err
			}
		}
		stop, err := preempt(t, wrote)
		if err != nil {
			return nil, err
		}
		d.endIteration(t, e, improvement)
		if stop {
			return nil, fmt.Errorf("%w (after iteration %d)", ErrPreempted, t)
		}
	}

	res.A, res.B, res.C = a, b, c
	res.Error = prevErr
	res.Stats = cl.Stats()
	res.SimTime = cl.SimElapsed()
	//dbtf:allow-nondeterministic wall-clock reporting only (Result.WallTime); no result depends on it
	res.WallTime = time.Since(start)
	return res, nil
}

// initialSet draws one set of initial factor matrices according to the
// configured scheme. InitTopFiber consumes no randomness: the RNG draw
// count (and with it the checkpointed stream state) advances only for the
// sampling schemes.
func initialSet(rng *rand.Rand, x *tensor.Tensor, opt Options) (a, b, c *boolmat.FactorMatrix) {
	i, j, k := x.Dims()
	if opt.Init == InitTopFiber {
		return topfiber.SeedFactors(x, opt.Rank)
	}
	if opt.Init == InitRandom {
		return boolmat.RandomFactor(rng, i, opt.Rank, opt.InitDensity),
			boolmat.RandomFactor(rng, j, opt.Rank, opt.InitDensity),
			boolmat.RandomFactor(rng, k, opt.Rank, opt.InitDensity)
	}
	a = boolmat.NewFactor(i, opt.Rank)
	b = boolmat.NewFactor(j, opt.Rank)
	c = boolmat.NewFactor(k, opt.Rank)
	coords := x.Coords()
	if len(coords) == 0 {
		return a, b, c
	}
	// rowStart[ii] indexes the first coordinate of mode-1 row ii: the
	// coordinate list is sorted by (I, J, K), so each row is a contiguous
	// range. The vote loops below walk only the rows of the seed fiber's
	// members instead of binary-searching the full list per cell.
	rowStart := make([]int, i+1)
	{
		r := 0
		for idx := range coords {
			for r <= coords[idx].I {
				rowStart[r] = idx
				r++
			}
		}
		for ; r <= i; r++ {
			rowStart[r] = len(coords)
		}
	}
	votesJ := make([]int32, j)
	votesK := make([]int32, k)
	// covered reports whether a cell lies inside the block of an earlier
	// component; seeds are rejection-sampled away from covered cells so
	// the components spread over distinct structures instead of piling
	// onto the densest one.
	covered := func(co tensor.Coord, upto int) bool {
		for r := 0; r < upto; r++ {
			if a.Get(co.I, r) && b.Get(co.J, r) && c.Get(co.K, r) {
				return true
			}
		}
		return false
	}
	for r := 0; r < opt.Rank; r++ {
		seed := coords[rng.Intn(len(coords))]
		for try := 0; try < 50 && covered(seed, r); try++ {
			seed = coords[rng.Intn(len(coords))]
		}
		// a_:r is the mode-1 fiber through the seed; b_:r and c_:r are
		// grown from it by majority vote: an index joins the component
		// when at least half of the a-members support it. This turns the
		// seed's fiber cross into a block estimate, which the alternating
		// updates then refine.
		var aIdx []int
		for ii := 0; ii < i; ii++ {
			if x.Get(ii, seed.J, seed.K) {
				a.Set(ii, r, true)
				aIdx = append(aIdx, ii)
			}
		}
		quorum := int32(len(aIdx)+1) / 2
		if quorum < 1 {
			quorum = 1
		}
		// One pass over each member row tallies both vote vectors: row ii
		// contributes a J-vote for every nonzero in its seed.K slice and a
		// K-vote for every nonzero in its seed.J slice, exactly the cells
		// the per-index Get probes used to test.
		for idx := range votesJ {
			votesJ[idx] = 0
		}
		for idx := range votesK {
			votesK[idx] = 0
		}
		for _, ii := range aIdx {
			for _, co := range coords[rowStart[ii]:rowStart[ii+1]] {
				if co.K == seed.K {
					votesJ[co.J]++
				}
				if co.J == seed.J {
					votesK[co.K]++
				}
			}
		}
		for jj := 0; jj < j; jj++ {
			if votesJ[jj] >= quorum {
				b.Set(jj, r, true)
			}
		}
		for kk := 0; kk < k; kk++ {
			if votesK[kk] >= quorum {
				c.Set(kk, r, true)
			}
		}
	}
	return a, b, c
}

type decomposition struct {
	// ctx is rootCtx with the current iteration's pprof label attached;
	// stages inherit it, so CPU profiles slice by iteration. rootCtx is the
	// caller's context, kept for re-labeling at each iteration boundary.
	ctx     context.Context
	rootCtx context.Context
	// openIter is the 1-based iteration whose trace span is open; 0 when
	// none. The run's deferred end event closes it on an aborted run.
	openIter int
	x        *tensor.Tensor
	cl       *cluster.Cluster
	opt      Options
	// remote marks a cluster backed by a real transport: distributed
	// stages ship to executors and committed state is replicated to them
	// instead of shared through memory.
	remote bool
	px     [3]*partition.Partitioned
	// reg[m] shares row-summation caches among the partitions placed on
	// machine m (Lemmas 4 and 5 count the build once per machine).
	reg []*machineRegistry
	// fp is the config+tensor fingerprint binding checkpoints to this run;
	// zero when checkpointing is disabled.
	fp uint64
}

// machineLost is the cluster's machine-loss callback (invoked at stage
// boundaries, before any of the stage's tasks run): machine m's cache
// registry died with the machine — survivors rebuild their own lazily on
// first use — and m's share of every mode's cached partitions is
// re-shipped to the survivors, charged as shuffle traffic. During the
// partitioning stage itself the unfoldings are not distributed yet and
// there is nothing to re-ship.
func (d *decomposition) machineLost(m int) {
	d.reg[m].clear()
	var bytes int64
	for _, px := range d.px {
		if px == nil {
			continue
		}
		for pi := range px.Parts {
			if pi%d.cl.Machines() == m {
				bytes += px.ReshipBytes(pi)
			}
		}
	}
	if bytes > 0 {
		d.cl.Shuffle(bytes)
	}
	d.trace("machine %d lost: re-shipping %d bytes to survivors", m, bytes)
}

// writeCheckpointStage durably snapshots the run at the just-completed
// iteration boundary. The write is driver-side disk I/O: its wall-clock
// cost is charged through the cluster's Driver section and its size is
// recorded in Stats.CheckpointBytes.
func (d *decomposition) writeCheckpointStage(res *Result, a, b, c *boolmat.FactorMatrix, prevErr int64, rngDraws uint64) error {
	ck := &checkpoint{
		Fingerprint:     d.fp,
		Iteration:       res.Iterations,
		Converged:       res.Converged,
		RNGDraws:        rngDraws,
		PrevErr:         prevErr,
		InitialErrors:   res.InitialErrors,
		IterationErrors: res.IterationErrors,
		A:               a, B: b, C: c,
		Init:        d.opt.Init,
		InitDensity: d.opt.InitDensity,
		InitialSets: d.opt.InitialSets,
	}
	var bytes int64
	var werr error
	if err := d.cl.DriverNamed(d.ctx, "checkpoint", func() {
		bytes, werr = writeCheckpoint(d.opt.CheckpointDir, ck)
	}); err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("core: checkpoint at iteration %d: %w", res.Iterations, werr)
	}
	d.cl.RecordCheckpoint(bytes)
	d.trace("checkpoint: iteration %d, %d bytes", res.Iterations, bytes)
	return nil
}

func (d *decomposition) trace(format string, args ...any) {
	if d.opt.Trace != nil {
		d.opt.Trace(format, args...)
	}
}

// beginIteration opens iteration t's trace span and re-labels the stage
// context so profiles attribute the iteration's kernels to it.
func (d *decomposition) beginIteration(t int) {
	d.ctx = pprof.WithLabels(d.rootCtx, pprof.Labels("iteration", strconv.Itoa(t)))
	if tr := d.cl.Tracer(); tr.Enabled() {
		ev := trace.NewEvent(trace.IterationBegin)
		ev.Iteration = t
		ev.SimNanos = d.cl.SimElapsed().Nanoseconds()
		tr.Emit(ev)
	}
	d.openIter = t
}

// endIteration closes iteration t's span, attaching the reconstruction
// error after the iteration and its improvement over the previous one.
func (d *decomposition) endIteration(t int, e, improvement int64) {
	d.openIter = 0
	if tr := d.cl.Tracer(); tr.Enabled() {
		ev := trace.NewEvent(trace.IterationEnd)
		ev.Iteration = t
		ev.SimNanos = d.cl.SimElapsed().Nanoseconds()
		ev.Error = &e
		ev.ErrorDelta = &improvement
		tr.Emit(ev)
	}
}

// partitionAll unfolds the tensor in its three modes and partitions each
// unfolding (Algorithm 2, lines 1-3). The shuffle volume of distributing
// the partitions is charged to the cluster (Lemma 6).
func (d *decomposition) partitionAll() error {
	// The three unfoldings share one fused sweep over the coordinate list
	// (driver-side, like the initial factors), then each machine builds its
	// mode's partitioning from the precomputed matricization.
	var ux [3]*tensor.Unfolded
	if err := d.cl.DriverNamed(d.ctx, "unfold", func() {
		ux = d.x.UnfoldAll()
	}); err != nil {
		return err
	}
	err := d.cl.ForEachNamed(d.ctx, "partition", 3, func(m int) error {
		d.px[m] = partition.Build(ux[m], d.opt.Partitions)
		return nil
	})
	if err != nil {
		return err
	}
	// The partitionings hold their own copy of every nonzero; the
	// unfoldings are dead weight from here on.
	for _, u := range ux {
		u.Recycle()
	}
	for _, px := range d.px {
		d.cl.Shuffle(px.ShuffleBytes)
	}
	return nil
}

// updateFactors updates A, B and C in place, one at a time while the other
// two are fixed (Algorithm 2, UpdateFactors). The factor matrices are
// broadcast to every machine once per call (Lemma 7).
func (d *decomposition) updateFactors(a, b, c *boolmat.FactorMatrix) error {
	bytes := int64(a.Rows()+b.Rows()+c.Rows()) * int64(d.opt.Rank) / 8
	// BroadcastState (not plain Broadcast): the factor matrices are the
	// working set a machine must re-fetch to recover from a machine loss.
	d.cl.BroadcastState(bytes)
	if d.remote {
		// The modeled broadcast above prices the transfer; this ships it:
		// remote executors replace their factor replicas (invalidating
		// column tasks and caches over the previous versions), after which
		// per-column pushes keep them identical to the driver's copies.
		if err := d.cl.PushState(d.ctx, transport.StateFactors, encodeFactors(a, b, c)); err != nil {
			return err
		}
	}
	// X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ: PVM blocks indexed by rows of C, cache over B.
	if err := d.updateFactor(0, "A", d.px[0], a, c, b); err != nil {
		return err
	}
	// X₍₂₎ ≈ B ∘ (C ⊙ A)ᵀ.
	if err := d.updateFactor(1, "B", d.px[1], b, c, a); err != nil {
		return err
	}
	// X₍₃₎ ≈ C ∘ (B ⊙ A)ᵀ.
	return d.updateFactor(2, "C", d.px[2], c, b, a)
}

// summer yields Boolean row summations for rank masks; it is the access
// interface shared by the cache tables and the uncached ablation.
type summer interface {
	// Sum returns the Boolean row summation for mask and its popcount;
	// scratch must be entry-width bits and may back the returned vector.
	Sum(mask uint64, scratch *bitvec.BitVec) (*bitvec.BitVec, int)
	// Width returns the entry width in bits.
	Width() int
}

// cacheSummer adapts sumcache.Cache to the summer interface.
type cacheSummer struct{ *sumcache.Cache }

// naiveSummer recomputes every row summation by ORing the selected factor
// columns, sliced to the block range — the behaviour DBTF's cache replaces.
type naiveSummer struct {
	cols  []*bitvec.BitVec // columns of M_s sliced to the block range
	width int
}

func (s naiveSummer) Width() int { return s.width }

func (s naiveSummer) Sum(mask uint64, scratch *bitvec.BitVec) (*bitvec.BitVec, int) {
	scratch.Zero()
	for m := mask; m != 0; m &= m - 1 {
		scratch.Or(s.cols[bits.TrailingZeros64(m)])
	}
	return scratch, scratch.OnesCount()
}

// blockSummers builds, for partition pi, a summer per block: the
// distributed part of Algorithm 5. The full-size cache is resolved through
// the registry of the machine the partition is placed on, so partitions
// sharing a machine share one table — and stages sharing a caching matrix
// (the B- and C-updates both cache over A; totalError's cache over B
// serves the next A-update) share it too, for as long as the matrix's
// version is unchanged. Partial blocks get lazily sliced views, memoized
// per distinct range (Lemma 3 bounds those per partition).
func (d *decomposition) blockSummers(pi int, p *partition.Partition, ms *boolmat.FactorMatrix) []summer {
	return buildBlockSummers(d.reg[d.cl.MachineFor(pi)], p, ms, d.opt.GroupBits, d.opt.NoCache)
}

// buildBlockSummers resolves a partition's summers against one machine's
// registry; the simulated path picks the registry by the engine's task
// placement, a remote executor uses its own. Shared so both backends build
// their caches identically.
func buildBlockSummers(reg *machineRegistry, p *partition.Partition, ms *boolmat.FactorMatrix, groupBits int, noCache bool) []summer {
	out := make([]summer, len(p.Blocks))
	if noCache {
		cols := ms.Columns()
		for bi, b := range p.Blocks {
			sliced := make([]*bitvec.BitVec, len(cols))
			for r, col := range cols {
				sliced[r] = col.Slice(b.InnerLo, b.InnerLo+b.Width())
			}
			out[bi] = naiveSummer{cols: sliced, width: b.Width()}
		}
		return out
	}
	mc := reg.cacheFor(ms, groupBits)
	for bi, b := range p.Blocks {
		if b.Type == partition.Full {
			out[bi] = cacheSummer{mc.full}
			continue
		}
		out[bi] = cacheSummer{mc.slice(b.InnerLo, b.InnerLo+b.Width())}
	}
	return out
}

// updateFactor updates factor matrix a against the partitioned unfolding
// px, where mf indexes the PVM blocks (the first Khatri–Rao operand) and
// ms is cached (the second operand) — Algorithm 4, with the per-row
// decision evaluated as the error difference e1 − e0 over the delta
// region of the two candidate summations instead of two full errors.
func (d *decomposition) updateFactor(modeIdx int, mode string, px *partition.Partitioned, a, mf, ms *boolmat.FactorMatrix) error {
	if d.opt.Horizontal {
		return d.updateFactorHorizontal(mode, px, a, mf, ms)
	}
	// The updated factor names the stage spans and the "mode" pprof label,
	// so both the timeline and CPU profiles split the three updates apart.
	ctx := pprof.WithLabels(d.ctx, pprof.Labels("mode", mode))
	n := len(px.Parts)
	p := a.Rows()

	// Stage: build per-partition column tasks — block summers resolved
	// through the per-machine cache registry (Algorithm 5) plus every
	// buffer the column loop needs, so the loop itself allocates nothing.
	// On a remote backend the tasks live on the executors; here only the
	// collected deltas do.
	tasks := make([]*columnTask, n)
	deltas := make([][]int64, n)
	buildSpec := transport.Spec{Name: "build:" + mode, Kind: transport.KindBuild, Mode: modeIdx, Tasks: n}
	err := d.cl.RunStage(ctx, buildSpec, func(pi int) error {
		tasks[pi] = d.newColumnTask(pi, px.Parts[pi], a, mf, ms)
		return nil
	}, nil)
	if err != nil {
		return err
	}

	for c := 0; c < d.opt.Rank; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Stage: every partition evaluates, for each row, the error
		// difference of its column range between the two candidate values
		// (Algorithm 4 lines 4-9 reduced to the flipped cells only).
		evalSpec := transport.Spec{Name: "eval:" + mode, Kind: transport.KindEval, Mode: modeIdx, Col: c, Tasks: n}
		err := d.cl.RunStage(ctx, evalSpec, func(pi int) error {
			tasks[pi].evalColumn(c)
			deltas[pi] = tasks[pi].deltas
			return nil
		}, func(pi int, payload []byte) error {
			ds, err := decodeDeltas(payload, p)
			if err != nil {
				return err
			}
			deltas[pi] = ds
			return nil
		})
		if err != nil {
			return err
		}
		// The driver collects P differences from every partition — one
		// int64 per row, half of Lemma 7's two-errors-per-row bound — and
		// commits the column (Algorithm 4 lines 10-12): set the entry
		// exactly when candidate 1's total error is strictly smaller,
		// i.e. when the summed difference is negative.
		d.cl.Collect(int64(n) * int64(p) * 8)
		err = d.cl.DriverNamed(ctx, "commit:"+mode, func() {
			for r := 0; r < p; r++ {
				var t int64
				for pi := 0; pi < n; pi++ {
					t += deltas[pi][r]
				}
				a.Set(r, c, t < 0)
			}
		})
		if err != nil {
			return err
		}
		if d.remote {
			// Replicate the committed column so executor factor replicas
			// track the driver's copies entry for entry.
			if err := d.cl.PushState(ctx, transport.StateColumn, encodeColumn(modeIdx, c, a)); err != nil {
				return err
			}
		}
	}
	return nil
}

// totalError computes |X ⊕ X̂| from the mode-1 partitions as a distributed
// stage. Its caches over b come from (and feed) the per-machine registry:
// b is unchanged since its own update finished, so the B-update's tables
// are reused here, and these remain valid for the next iteration's
// A-update.
func (d *decomposition) totalError(a, b, c *boolmat.FactorMatrix) (int64, error) {
	px := d.px[0]
	n := len(px.Parts)
	partial := make([]int64, n)
	spec := transport.Spec{Name: "total-error", Kind: transport.KindTotalError, Tasks: n}
	err := d.cl.RunStage(d.ctx, spec, func(pi int) error {
		part := px.Parts[pi]
		partial[pi] = partitionError(part, a, c, d.blockSummers(pi, part, b))
		return nil
	}, func(pi int, payload []byte) error {
		e, err := decodePartial(payload)
		if err != nil {
			return err
		}
		partial[pi] = e
		return nil
	})
	if err != nil {
		return 0, err
	}
	d.cl.Collect(int64(n) * 8)
	var total int64
	for _, e := range partial {
		total += e
	}
	return total, nil
}

// partitionError computes one mode-1 partition's share of |X ⊕ X̂| from
// pre-resolved summers over b: rows indexed by a, PVM blocks by c. Shared
// by the simulated path and remote executors.
func partitionError(part *partition.Partition, a, c *boolmat.FactorMatrix, summers []summer) int64 {
	var e int64
	for bi, blk := range part.Blocks {
		kMask := c.RowMask(blk.PVM)
		sm := summers[bi]
		scratch := bitvec.New(sm.Width())
		for r := 0; r < a.Rows(); r++ {
			sum, pop := sm.Sum(a.RowMask(r)&kMask, scratch)
			e += blk.RowError(r, sum, pop)
		}
	}
	return e
}
