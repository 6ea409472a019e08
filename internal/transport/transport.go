// Package transport defines the seam between the cluster engine and a
// real distributed substrate. The engine in internal/cluster executes
// stages either on its simulated in-process machines (the default, and
// the deterministic oracle) or — when a Transport is configured — by
// shipping stage descriptors to remote executors over a wire protocol.
//
// The split mirrors a classic driver/executor design (Spark's, which the
// paper's DBTF runs on): the coordinator keeps the whole algorithm —
// control flow, RNG, column commits, checkpointing — and remote machines
// are stage servers holding their own share of the partitioned
// unfoldings plus replicated factor matrices, and execute named stage
// kinds against them. Because the executors run the byte-identical
// kernels on byte-identical state, a run over any Transport must produce
// factors bit-identical to the simulated engine's for the same seed; the
// differential tests enforce exactly that.
//
// The package holds the interfaces and the length-prefixed gob frame
// codec; the TCP implementation lives in transport/tcp.
package transport

import "context"

// Kind names a remote stage's computation. The set is closed: executors
// reject unknown kinds.
type Kind uint8

const (
	// KindBuild builds one partition's column-update task for a factor
	// update: block summers resolved through the executor's cache
	// registry plus the buffers the column loop needs.
	KindBuild Kind = iota + 1
	// KindEval evaluates one column of a factor update on one partition,
	// returning the per-row error deltas.
	KindEval
	// KindTotalError computes one mode-1 partition's share of the total
	// reconstruction error.
	KindTotalError
)

// String returns the kind's wire-independent name.
func (k Kind) String() string {
	switch k {
	case KindBuild:
		return "build"
	case KindEval:
		return "eval"
	case KindTotalError:
		return "total-error"
	}
	return "unknown"
}

// Spec describes one remote stage: what to run, not how. Tasks index
// partitions; the executor resolves everything else from its replicated
// state.
type Spec struct {
	// Name is the stage label, shared with the trace stream.
	Name string
	// Kind selects the computation.
	Kind Kind
	// Mode is the factor update's mode index (0=A, 1=B, 2=C) for
	// KindBuild and KindEval; unused for KindTotalError.
	Mode int
	// Col is the column under evaluation for KindEval.
	Col int
	// Tasks is the number of tasks (partitions) in the stage.
	Tasks int
}

// StateKind names a state blob the coordinator ships to an executor.
type StateKind uint8

const (
	// StateSetup installs the executor's own share of the run: the
	// decomposition parameters plus the partitions of all three modes it
	// owns (partition pi lives on machine pi mod M), already laid out. It
	// resets everything else the executor held. Each machine receives
	// only its own blob (PushSetup); a rejoining machine has it replayed.
	StateSetup StateKind = iota + 1
	// StateFactors replaces the three factor matrices — the per-iteration
	// broadcast working set. It invalidates executor-side column tasks
	// and caches built over previous factor versions.
	StateFactors
	// StateColumn applies one committed column of one factor matrix in
	// place, keeping executor state identical to the coordinator's
	// between full broadcasts.
	StateColumn
	// StateAdopt adds another home machine's setup blob to an executor
	// that already holds its own, without resetting anything: the
	// re-shipped partitions a ring successor needs before it runs a lost
	// machine's tasks.
	StateAdopt
)

// String returns the state kind's name.
func (k StateKind) String() string {
	switch k {
	case StateSetup:
		return "setup"
	case StateFactors:
		return "factors"
	case StateColumn:
		return "column"
	case StateAdopt:
		return "adopt"
	}
	return "unknown"
}

// TaskResult is one completed remote task: which machine ran it, the
// measured execution nanos (charged to the simulated clock exactly like a
// local task's duration), and the task's output payload (nil for
// side-effect-only kinds such as KindBuild).
type TaskResult struct {
	Task    int
	Machine int
	Nanos   int64
	Payload []byte
}

// LivenessEvent is one machine liveness transition observed by the
// transport: Up=false when a connection was declared dead (the machine is
// lost), Up=true when a dead machine was redialed and replayed back into
// service (the machine rejoined).
type LivenessEvent struct {
	Machine int
	Up      bool
}

// StateBlob is one state blob in transit: its kind and its payload.
type StateBlob struct {
	Kind    StateKind
	Payload []byte
}

// Transport executes remote stages for the cluster engine. Implementations
// own connection management and failure detection; the engine owns all
// accounting. The engine calls Membership at every remote stage boundary
// and applies the reported transitions to its liveness books (trace
// events, loss handlers, recovery charges) before opening the stage —
// matching the simulated engine's rule that machines are lost and rejoin
// only at stage boundaries.
type Transport interface {
	// Machines returns the executor count M; must equal the cluster's.
	Machines() int
	// Membership detects failed connections, attempts to redial dead
	// machines and replay their state, and returns the liveness
	// transitions since the previous call, in detection order. A live
	// machine is probed only when no call to it succeeded since the
	// previous boundary: a successful call is already evidence of life.
	Membership(ctx context.Context) []LivenessEvent
	// PushSetup ships homes[m], machine m's StateSetup blob, to every live
	// machine m, concurrently, and records the blobs for replay and for
	// adoption by ring successors. A machine that misses its blob because
	// its connection died is marked down. PushSetup fails only when an
	// executor rejects its blob or no live executor remains.
	PushSetup(ctx context.Context, homes [][]byte) error
	// PushState replicates one StateFactors or StateColumn blob to every
	// live executor and records it for replay. Factors go out at once;
	// a column is queued per executor and travels with that executor's
	// next request, applied before the request's tasks, so a column
	// commit costs no round trip of its own. A factors push supersedes
	// the queued columns. PushState fails only when an executor rejects
	// the state or no live executor remains.
	PushState(ctx context.Context, kind StateKind, payload []byte) error
	// Run executes the stage: every task in [0, spec.Tasks) runs on its
	// home machine (task mod M) or, while that machine is down, on the
	// next live machine in ring order — the engine's reassignment rule.
	// A successor first adopts the home's setup blob, in the same request.
	// deliver is called sequentially, once per task, in completion order.
	// A task whose machine dies mid-stage is rerouted and re-executed
	// (tasks are idempotent by the engine's contract); Run fails only
	// when a task has no live machine left or ctx is done.
	Run(ctx context.Context, spec Spec, deliver func(TaskResult) error) error
	// WireBytes returns cumulative bytes written to and read from the
	// real sockets. The engine emits per-stage deltas as trace events;
	// wire bytes are measurements, not part of the modeled traffic
	// accounting.
	WireBytes() (sent, received int64)
	// Close tears down every connection.
	Close() error
}

// Host is the executor side of the protocol: replicated state plus stage
// execution. Implementations must be safe for one request at a time (the
// wire protocol is sequential per connection); the tcp server serializes
// calls.
type Host interface {
	// Apply installs one replicated-state blob.
	Apply(kind StateKind, payload []byte) error
	// RunTask executes one task of a stage and returns its payload.
	RunTask(spec Spec, task int) ([]byte, error)
}

// BatchHost is an optional extension of Host: an executor that runs a
// whole stage batch itself, typically fanning the tasks (and their row
// ranges) out across its machine's OS threads. Servers type-assert for
// it and fall back to per-task RunTask calls when absent.
//
// The reply contract matches running the tasks one by one: on success
// RunBatch returns exactly one TaskOutput per requested task, in the
// order given, each with its own measured nanos. Any task failure fails
// the whole batch — the all-or-nothing rule the coordinator's rerouting
// relies on — with an error identifying the failing task; when several
// tasks fail, the error names the one earliest in the batch order, so a
// parallel executor reports deterministically.
type BatchHost interface {
	Host
	RunBatch(spec Spec, tasks []int) ([]TaskOutput, error)
}
