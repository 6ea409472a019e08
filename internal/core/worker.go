package core

import (
	"fmt"
	"sync"
	"time"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/transport"
)

// Worker is the executor side of a remote run: one logical machine's
// state — the partitions of the three unfoldings it owns (partition pi
// lives on machine pi mod M), plus any a lost machine's setup blob handed
// it as ring successor, the current factor matrices, a cache registry,
// and the column tasks built by build stages — and the stage kinds the
// coordinator ships. It holds no tensor: partitions arrive laid out in
// the setup blob and are decoded in place. It implements transport.Host.
//
// A Worker runs the exact kernels the simulated engine runs
// (buildColumnTask, evalColumn, partitionError) on partitions equal to
// the coordinator's and factors kept entry-identical by the StateKind
// pushes, which is what makes remote factors bit-identical to simulated
// ones for the same seed.
//
// Concurrency: the wire protocol is one request at a time per
// connection, but a single request may fan out — RunBatch evaluates a
// stage batch's tasks concurrently across the worker's threads, and each
// task's evalColumn row-shards over the same pool. State mutation
// (Apply, task builds, lazy rebuilds) holds the lock exclusively;
// parallel batch evaluation holds it shared, and each task writes only
// its own columnTask, so evaluations never race each other.
type Worker struct {
	// pool is the machine's intra-task worker pool; nil runs everything
	// sequentially. Immutable after construction.
	pool *cluster.Pool
	mu   sync.RWMutex
	//dbtf:guardedby mu
	setup wireSetup
	// shares maps each home whose setup blob the machine applied — its
	// own, then adopted ones — to that home's decoded partitions of the
	// three modes. Empty until the first StateSetup.
	//dbtf:guardedby mu
	shares map[int][3]*partition.Partitioned
	// parts[mode][pi] indexes every held partition of the mode.
	//dbtf:guardedby mu
	parts [3]map[int]*partition.Partition
	// reg is this machine's cache registry: summers resolved here are
	// shared by the machine's partitions and across stages, exactly like
	// one simulated machine's registry entry.
	//dbtf:guardedby mu
	reg *machineRegistry
	//dbtf:guardedby mu
	a, b, c *boolmat.FactorMatrix
	// tasks[mode][pi] is the column task a build stage (or a lazy rebuild
	// after reassignment) created for partition pi of the mode's update.
	// Replaced wholesale on every factor push: tasks hold summers over
	// factor versions a push supersedes.
	//dbtf:guardedby mu
	tasks [3]map[int]*columnTask
}

// NewWorker returns an empty executor awaiting its StateSetup blob.
func NewWorker() *Worker { return &Worker{} }

// NewWorkerThreads returns an executor whose stage batches and eval
// kernels may use up to threads OS threads (one simulated machine with T
// cores). Thread counts never change results — only how many goroutines
// compute them — so workers of mixed widths can serve one run.
func NewWorkerThreads(threads int) *Worker {
	if threads <= 1 {
		return &Worker{}
	}
	return &Worker{pool: cluster.NewPool(threads)}
}

// Apply installs one replicated-state blob (transport.Host).
func (w *Worker) Apply(kind transport.StateKind, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch kind {
	case transport.StateSetup:
		return w.applySetupLocked(payload)
	case transport.StateFactors:
		return w.applyFactorsLocked(payload)
	case transport.StateColumn:
		return w.applyColumnLocked(payload)
	case transport.StateAdopt:
		return w.applyAdoptLocked(payload)
	}
	return fmt.Errorf("core: worker: unknown state kind %d", kind)
}

func (w *Worker) applySetupLocked(payload []byte) error {
	ws, px, err := decodeSetup(payload)
	if err != nil {
		return err
	}
	// A setup (first push or rejoin replay) resets everything: the
	// process may have restarted, or be starting a new run.
	w.releaseSharesLocked()
	w.setup = ws
	w.shares = map[int][3]*partition.Partitioned{}
	for m := range w.parts {
		w.parts[m] = map[int]*partition.Partition{}
	}
	w.addShareLocked(ws.Home, px)
	w.reg = &machineRegistry{entries: map[registryKey]*machineCache{}}
	w.a, w.b, w.c = nil, nil, nil
	w.resetTasksLocked()
	return nil
}

// applyAdoptLocked adds a lost home's share to the machine's own, keeping
// factors, caches and built tasks: the adopted partitions build their
// column tasks lazily on first use. Adopting a held home is a no-op.
func (w *Worker) applyAdoptLocked(payload []byte) error {
	if w.shares == nil {
		return fmt.Errorf("core: worker: adoption before setup")
	}
	ws, px, err := decodeSetup(payload)
	if err != nil {
		return err
	}
	home := ws.Home
	ws.Home = w.setup.Home
	if ws != w.setup {
		releaseShare(px)
		return fmt.Errorf("core: worker: adopted setup of home %d does not match the run's parameters", home)
	}
	if _, held := w.shares[home]; held {
		releaseShare(px)
		return nil
	}
	w.addShareLocked(home, px)
	return nil
}

// addShareLocked records home's decoded share and indexes its partitions.
func (w *Worker) addShareLocked(home int, px [3]*partition.Partitioned) {
	w.shares[home] = px
	for m, p := range px {
		for _, part := range p.Parts {
			w.parts[m][part.Index] = part
		}
	}
}

// releaseSharesLocked returns every held share's arenas to the slab pool.
func (w *Worker) releaseSharesLocked() {
	//dbtf:allow-nondeterministic release order only picks which slab pool slot each arena lands in; no result reads it
	for _, px := range w.shares {
		releaseShare(px)
	}
	w.shares = nil
}

func releaseShare(px [3]*partition.Partitioned) {
	for _, p := range px {
		p.Release()
	}
}

// partLocked returns held partition pi of mode modeIdx.
func (w *Worker) partLocked(modeIdx, pi int) (*partition.Partition, error) {
	part := w.parts[modeIdx][pi]
	if part == nil {
		return nil, fmt.Errorf("core: worker: partition %d of mode %d is not held by this machine", pi, modeIdx+1)
	}
	return part, nil
}

func (w *Worker) applyFactorsLocked(payload []byte) error {
	if w.shares == nil {
		return fmt.Errorf("core: worker: factors pushed before setup")
	}
	a, b, c, err := decodeFactors(payload)
	if err != nil {
		return err
	}
	i, j, k := w.setup.Dims[0], w.setup.Dims[1], w.setup.Dims[2]
	for _, f := range []struct {
		name string
		m    *boolmat.FactorMatrix
		rows int
	}{{"A", a, i}, {"B", b, j}, {"C", c, k}} {
		if f.m.Rows() != f.rows || f.m.Rank() != w.setup.Rank {
			return fmt.Errorf("core: worker: pushed factor %s is %dx%d, want %dx%d",
				f.name, f.m.Rows(), f.m.Rank(), f.rows, w.setup.Rank)
		}
	}
	w.a, w.b, w.c = a, b, c
	// Tasks and caches built over the previous factor versions are stale;
	// the registry's version keys would catch the caches, dropping both
	// keeps memory bounded by the live working set.
	w.reg.clearRelease()
	w.resetTasksLocked()
	return nil
}

func (w *Worker) applyColumnLocked(payload []byte) error {
	modeIdx, col, rows, bits, err := decodeColumn(payload)
	if err != nil {
		return err
	}
	m := w.factorLocked(modeIdx)
	if m == nil {
		return fmt.Errorf("core: worker: column pushed before factors")
	}
	if rows != m.Rows() || col >= m.Rank() {
		return fmt.Errorf("core: worker: column push %d rows/col %d does not fit %dx%d factor",
			rows, col, m.Rows(), m.Rank())
	}
	// In place: live column tasks hold pointers to this matrix and must
	// observe the committed entries, exactly as the simulated path's
	// driver commit mutates the shared matrix under its tasks.
	for r := 0; r < rows; r++ {
		m.Set(r, col, bits[r/8]&(1<<uint(r%8)) != 0)
	}
	return nil
}

func (w *Worker) resetTasksLocked() {
	for m := range w.tasks {
		w.tasks[m] = map[int]*columnTask{}
	}
}

// factor returns the matrix updated in mode modeIdx (0=A, 1=B, 2=C).
func (w *Worker) factorLocked(modeIdx int) *boolmat.FactorMatrix {
	switch modeIdx {
	case 0:
		return w.a
	case 1:
		return w.b
	case 2:
		return w.c
	}
	return nil
}

// modeMatrices resolves a factor update's operand roles, mirroring
// updateFactors: the updated matrix, the PVM-indexing matrix mf, and the
// cached matrix ms.
func (w *Worker) modeMatricesLocked(modeIdx int) (upd, mf, ms *boolmat.FactorMatrix, err error) {
	switch modeIdx {
	case 0:
		upd, mf, ms = w.a, w.c, w.b
	case 1:
		upd, mf, ms = w.b, w.c, w.a
	case 2:
		upd, mf, ms = w.c, w.b, w.a
	default:
		return nil, nil, nil, fmt.Errorf("core: worker: mode %d outside [0,2]", modeIdx)
	}
	if upd == nil || mf == nil || ms == nil {
		return nil, nil, nil, fmt.Errorf("core: worker: mode %d stage before factors push", modeIdx)
	}
	return upd, mf, ms, nil
}

// RunTask executes one task of a shipped stage (transport.Host) and
// returns its result payload.
func (w *Worker) RunTask(spec transport.Spec, task int) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.shares == nil {
		return nil, fmt.Errorf("core: worker: stage %q before setup", spec.Name)
	}
	switch spec.Kind {
	case transport.KindBuild:
		_, err := w.columnTaskForLocked(spec.Mode, task)
		return nil, err
	case transport.KindEval:
		t, err := w.columnTaskForLocked(spec.Mode, task)
		if err != nil {
			return nil, err
		}
		if spec.Col < 0 || spec.Col >= w.setup.Rank {
			return nil, fmt.Errorf("core: worker: eval column %d outside rank %d", spec.Col, w.setup.Rank)
		}
		t.evalColumn(spec.Col)
		return encodeDeltas(t.deltas), nil
	case transport.KindTotalError:
		if w.a == nil {
			return nil, fmt.Errorf("core: worker: total-error before factors push")
		}
		part, err := w.partLocked(0, task)
		if err != nil {
			return nil, err
		}
		summers := buildBlockSummers(w.reg, part, w.b, w.setup.GroupBits, w.setup.NoCache)
		return encodePartial(partitionError(part, w.a, w.c, summers)), nil
	}
	return nil, fmt.Errorf("core: worker: unknown stage kind %d", spec.Kind)
}

// columnTaskFor returns the mode's column task for partition pi, building
// it if the build stage ran elsewhere (the partition was reassigned to
// this machine after a loss). Lazy rebuild is sound because evalColumn is
// stateless across columns and the cached matrix ms does not change during
// its own mode's update: a task built mid-update is byte-equivalent to one
// built at the build stage.
func (w *Worker) columnTaskForLocked(modeIdx, pi int) (*columnTask, error) {
	upd, mf, ms, err := w.modeMatricesLocked(modeIdx)
	if err != nil {
		return nil, err
	}
	if t := w.tasks[modeIdx][pi]; t != nil {
		return t, nil
	}
	part, err := w.partLocked(modeIdx, pi)
	if err != nil {
		return nil, err
	}
	summers := buildBlockSummers(w.reg, part, ms, w.setup.GroupBits, w.setup.NoCache)
	t := buildColumnTask(part, upd, mf, summers, w.setup.NoCache, w.pool)
	w.tasks[modeIdx][pi] = t
	return t, nil
}

// RunBatch executes a whole stage batch (transport.BatchHost). Eval
// batches fan their tasks out across the worker's threads: every task is
// first resolved under the exclusive lock (lazy rebuilds after a
// reassignment mutate the task maps and the cache registry), then the
// evaluations — which write only their own columnTask state — run
// concurrently under the shared lock. All other kinds, and sequential
// workers, run the tasks one by one. Failures follow the BatchHost
// contract: the batch fails as a whole, naming the earliest failing task
// in batch order (validation happens in that order before any fan-out,
// so the selection is deterministic even for parallel batches).
func (w *Worker) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	outs := make([]transport.TaskOutput, len(tasks))
	if spec.Kind != transport.KindEval || len(tasks) <= 1 || w.pool.Threads() <= 1 {
		for i, task := range tasks {
			//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
			start := time.Now()
			payload, err := w.RunTask(spec, task)
			if err != nil {
				return nil, fmt.Errorf("task %d: %w", task, err)
			}
			outs[i] = transport.TaskOutput{
				Task: task,
				//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
				Nanos:   time.Since(start).Nanoseconds() + w.pool.DrainExcess(),
				Payload: payload,
			}
		}
		return outs, nil
	}
	cts, err := w.resolveEvalBatch(spec, tasks)
	if err != nil {
		return nil, err
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.pool.Run(len(tasks), func(i int) {
		//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
		start := time.Now()
		cts[i].evalColumn(spec.Col)
		outs[i] = transport.TaskOutput{
			Task: tasks[i],
			//dbtf:allow-nondeterministic task nanos are wall-clock reporting charged to the simulated ledger, never fed back into results
			Nanos:   time.Since(start).Nanoseconds(),
			Payload: encodeDeltas(cts[i].deltas),
		}
	})
	// The wall time the fan-out saved is charged to the batch's first
	// task: the coordinator sums nanos per machine, so attribution within
	// one worker's batch cannot skew the simulated makespan.
	outs[0].Nanos += w.pool.DrainExcess()
	return outs, nil
}

// resolveEvalBatch validates an eval batch and builds (or fetches) every
// task's columnTask under the exclusive lock, in batch order.
func (w *Worker) resolveEvalBatch(spec transport.Spec, tasks []int) ([]*columnTask, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.shares == nil {
		return nil, fmt.Errorf("stage before setup")
	}
	if spec.Col < 0 || spec.Col >= w.setup.Rank {
		return nil, fmt.Errorf("eval column %d outside rank %d", spec.Col, w.setup.Rank)
	}
	cts := make([]*columnTask, len(tasks))
	for i, task := range tasks {
		t, err := w.columnTaskForLocked(spec.Mode, task)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", task, err)
		}
		cts[i] = t
	}
	return cts, nil
}
