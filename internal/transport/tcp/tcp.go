// Package tcp is the multi-process transport backend: each cluster machine
// is a separate OS process (cmd/dbtf-worker) speaking the length-prefixed
// gob protocol of package transport over a TCP connection.
//
// The coordinator side (Dial) implements transport.Transport for the
// driver; the executor side (Serve) pumps frames into a transport.Host.
// Failure handling mirrors the simulated engine's recovery protocol:
// a connection error marks the machine down and surfaces as a
// LivenessEvent at the next stage boundary, its work reroutes to the
// ring-successor live machine (which first adopts the lost machine's
// setup blob, in the same request), and a machine that redials is
// replayed its state history (its own setup blob, current factors,
// columns since) before it is reported back up.
//
// In a steady run each worker sees one setup push, one factors push per
// iteration and one request per stage: committed columns ride on the next
// request, and Membership pings only workers that have not answered a
// call since the previous boundary.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbtf/internal/transport"
)

// Config configures Dial.
type Config struct {
	// Addrs lists the worker addresses; machine m is Addrs[m].
	Addrs []string
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one request/response exchange and is therefore
	// the loss detector: a worker that does not answer within it is
	// treated as lost. It must cover the slowest single stage batch.
	// Default 2m.
	CallTimeout time.Duration
	// RedialBackoff is the minimum interval between reconnection attempts
	// to a down worker. Default 250ms.
	RedialBackoff time.Duration
	// MaxFrame bounds accepted frame sizes. Default transport.DefaultMaxFrame.
	MaxFrame int64
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Minute
	}
	if c.RedialBackoff == 0 {
		c.RedialBackoff = 250 * time.Millisecond
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = transport.DefaultMaxFrame
	}
	return c
}

// errDown distinguishes connection-level failures (reroute the batch,
// report the machine lost) from executor-reported errors (fatal to the
// run, connection still healthy).
var errDown = errors.New("tcp: worker connection down")

// remoteError is an error the executor reported over a healthy
// connection: a failed task or a rejected state push.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// worker is the coordinator's view of one machine. Every field past addr
// is guarded by mu.
type worker struct {
	addr string
	mu   sync.Mutex
	// conn is nil while the worker is down.
	conn     net.Conn
	lastDial time.Time
	// answered records a reply since the last Membership boundary: the
	// evidence of life that makes a ping redundant.
	answered bool
	// queued holds the column commits the worker has not received yet;
	// they travel with its next request.
	queued []transport.StateBlob
	// holds marks the homes whose setup blobs the worker has applied: its
	// own after a setup push or replay, plus any it adopted as a ring
	// successor. Reset when the connection goes down.
	holds map[int]bool
}

// Coordinator implements transport.Transport over per-worker TCP
// connections. The driver calls it from one goroutine; internal
// concurrency (parallel stage batches) is confined to Run.
type Coordinator struct {
	cfg     Config
	workers []*worker

	// pending accumulates liveness transitions detected since the last
	// Membership call, in detection order.
	pmu     sync.Mutex
	pending []transport.LivenessEvent

	// Replay log for rejoining workers and adopting successors: every
	// home's setup blob, the latest factor snapshot, and the column
	// commits since that snapshot.
	homes   [][]byte
	factors []byte
	columns [][]byte

	sent  atomic.Int64
	recvd atomic.Int64
}

// Dial connects to every worker and performs the protocol handshake.
// All-or-nothing: if any worker is unreachable the whole dial fails, so a
// run never silently starts degraded.
func Dial(cfg Config) (*Coordinator, error) {
	return DialContext(context.Background(), cfg)
}

// DialContext is Dial with a caller-supplied context covering the whole
// connect phase — both the TCP connects and the protocol handshakes.
// Cancelling ctx aborts a dial that would otherwise stall until
// CallTimeout on a worker that accepts the connection but never answers
// the handshake.
func DialContext(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("tcp: no worker addresses")
	}
	c := &Coordinator{cfg: cfg}
	for _, addr := range cfg.Addrs {
		c.workers = append(c.workers, &worker{addr: addr})
	}
	for m, w := range c.workers {
		if err := c.dialWorker(ctx, m, w); err != nil {
			if cerr := c.Close(); cerr != nil {
				return nil, fmt.Errorf("%w (and closing dialed workers: %v)", err, cerr)
			}
			return nil, err
		}
	}
	return c, nil
}

// dialWorker connects and handshakes machine m. Caller must not hold w.mu.
// ctx bounds both the connect and the handshake exchange; the redial path
// passes the stage-boundary ctx so a recovering run stays cancellable.
func (c *Coordinator) dialWorker(ctx context.Context, m int, w *worker) error {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return fmt.Errorf("tcp: dial worker %d (%s): %w", m, w.addr, err)
	}
	hello := &transport.Msg{
		Type:     transport.MsgHello,
		Proto:    transport.ProtoVersion,
		Machine:  m,
		Machines: len(c.workers),
	}
	// The handshake I/O only observes deadlines, not ctx; a watcher closes
	// the connection on cancellation to unblock the exchange immediately.
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			// Abandoning the handshake; the close error adds nothing.
			_ = conn.Close()
		case <-stop:
		}
	}()
	resp, err := c.exchange(conn, hello)
	close(stop)
	// The watcher exits as soon as stop closes (the line above), so this
	// join is bounded by a select already watching ctx.
	<-watched //dbtf:blocking watcher selects on ctx.Done/stop and stop just closed
	if err != nil {
		if ctx.Err() != nil {
			// The watcher already closed the connection.
			return fmt.Errorf("tcp: handshake with worker %d (%s): %w", m, w.addr, ctx.Err())
		}
		if cerr := conn.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing: %v)", err, cerr)
		}
		return fmt.Errorf("tcp: handshake with worker %d (%s): %w", m, w.addr, err)
	}
	if resp.Type != transport.MsgHelloOK {
		if cerr := conn.Close(); cerr != nil {
			return fmt.Errorf("tcp: worker %d (%s) rejected handshake: %s (and closing: %v)", m, w.addr, resp.Error, cerr)
		}
		return fmt.Errorf("tcp: worker %d (%s) rejected handshake: %s", m, w.addr, resp.Error)
	}
	w.mu.Lock()
	w.conn = conn
	w.lastDial = time.Now()
	// The handshake reply is evidence of life for the next boundary.
	w.answered = true
	w.mu.Unlock()
	return nil
}

// exchange writes one frame and reads one reply on a raw connection,
// under the call timeout, charging the wire counters.
func (c *Coordinator) exchange(conn net.Conn, m *transport.Msg) (*transport.Msg, error) {
	if err := conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout)); err != nil {
		return nil, err
	}
	n, err := transport.WriteFrame(conn, m)
	c.sent.Add(int64(n))
	if err != nil {
		return nil, err
	}
	resp, rn, err := transport.ReadFrame(conn, c.cfg.MaxFrame)
	c.recvd.Add(int64(rn))
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// call performs one request/response with machine m. A connection-level
// failure marks the machine down and returns errDown; an executor-reported
// error returns a *remoteError with the connection kept alive.
func (c *Coordinator) call(m int, msg *transport.Msg) (*transport.Msg, error) {
	w := c.workers[m]
	w.mu.Lock()
	defer w.mu.Unlock()
	return c.callLocked(m, w, msg)
}

// callLocked is call for a caller holding w.mu.
func (c *Coordinator) callLocked(m int, w *worker, msg *transport.Msg) (*transport.Msg, error) {
	if w.conn == nil {
		return nil, errDown
	}
	resp, err := c.exchange(w.conn, msg)
	if err != nil {
		c.markDownLocked(m, w)
		return nil, fmt.Errorf("%w: machine %d: %v", errDown, m, err)
	}
	w.answered = true
	if resp.Type == transport.MsgError {
		return nil, &remoteError{msg: fmt.Sprintf("worker %d: %s", m, resp.Error)}
	}
	return resp, nil
}

// markDownLocked closes machine m's connection and queues the loss event.
// Caller holds w.mu. The worker's queued columns and adopted homes die
// with the connection: a rejoin replays its state from the log.
func (c *Coordinator) markDownLocked(m int, w *worker) {
	if w.conn == nil {
		return
	}
	// The connection is already broken; a close error adds nothing.
	_ = w.conn.Close()
	w.conn = nil
	w.queued, w.holds = nil, nil
	c.pmu.Lock()
	c.pending = append(c.pending, transport.LivenessEvent{Machine: m, Up: false})
	c.pmu.Unlock()
}

func (c *Coordinator) alive(m int) bool {
	w := c.workers[m]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn != nil
}

// Machines implements transport.Transport.
func (c *Coordinator) Machines() int { return len(c.workers) }

// WireBytes implements transport.Transport.
func (c *Coordinator) WireBytes() (int64, int64) { return c.sent.Load(), c.recvd.Load() }

// Close tears down every worker connection.
func (c *Coordinator) Close() error {
	var first error
	for _, w := range c.workers {
		w.mu.Lock()
		if w.conn != nil {
			if err := w.conn.Close(); err != nil && first == nil {
				first = err
			}
			w.conn = nil
		}
		w.mu.Unlock()
	}
	return first
}

// Membership implements transport.Transport: it reports the liveness
// transitions since the last stage boundary. Losses detected mid-stage
// were queued by call; here the coordinator additionally pings the live
// workers that have not answered any call since the previous boundary
// (catching silent deaths between stages without a round trip per worker
// per stage) and attempts to redial down workers, replaying the state
// history before reporting them up.
func (c *Coordinator) Membership(ctx context.Context) []transport.LivenessEvent {
	for m, w := range c.workers {
		w.mu.Lock()
		probe := w.conn != nil && !w.answered
		w.answered = false
		if probe {
			// A failed ping queues the loss itself via markDownLocked; a
			// pong is evidence for this boundary, not the next one.
			if _, err := c.callLocked(m, w, &transport.Msg{Type: transport.MsgPing}); err == nil {
				w.answered = false
			}
		}
		w.mu.Unlock()
	}
	for m, w := range c.workers {
		if c.alive(m) || ctx.Err() != nil {
			continue
		}
		w.mu.Lock()
		recent := time.Since(w.lastDial) < c.cfg.RedialBackoff
		w.mu.Unlock()
		if recent {
			continue
		}
		w.mu.Lock()
		w.lastDial = time.Now()
		w.mu.Unlock()
		if err := c.dialWorker(ctx, m, w); err != nil {
			continue // still down; try again next boundary
		}
		if err := c.replay(m); err != nil {
			// Replay failure re-queued the loss (connection) or means the
			// worker is misbehaving (remote error) — drop the connection
			// either way and retry at a later boundary.
			w.mu.Lock()
			c.markDownLocked(m, w)
			w.mu.Unlock()
			continue
		}
		c.pmu.Lock()
		c.pending = append(c.pending, transport.LivenessEvent{Machine: m, Up: true})
		c.pmu.Unlock()
	}
	c.pmu.Lock()
	ev := c.pending
	c.pending = nil
	c.pmu.Unlock()
	return ev
}

// replay ships the recorded state history to a freshly redialed machine:
// the rejoin path of the recovery protocol — its own setup blob, the
// current factors, the columns since. The setup replay resets the
// worker, so replaying to a process that never actually died is safe.
func (c *Coordinator) replay(m int) error {
	w := c.workers[m]
	w.mu.Lock()
	defer w.mu.Unlock()
	push := func(kind transport.StateKind, payload []byte) error {
		if payload == nil {
			return nil
		}
		resp, err := c.callLocked(m, w, &transport.Msg{Type: transport.MsgState, State: kind, Payload: payload})
		if err != nil {
			return err
		}
		if resp.Type != transport.MsgAck {
			return &remoteError{msg: fmt.Sprintf("worker %d: unexpected reply %d to state replay", m, resp.Type)}
		}
		return nil
	}
	if c.homes != nil {
		if err := push(transport.StateSetup, c.homes[m]); err != nil {
			return err
		}
		w.holds = map[int]bool{m: true}
	}
	if err := push(transport.StateFactors, c.factors); err != nil {
		return err
	}
	for _, col := range c.columns {
		if err := push(transport.StateColumn, col); err != nil {
			return err
		}
	}
	return nil
}

// PushSetup implements transport.Transport: record every home's blob for
// replay and adoption, then ship each live machine its own blob,
// concurrently.
func (c *Coordinator) PushSetup(ctx context.Context, homes [][]byte) error {
	if len(homes) != len(c.workers) {
		return fmt.Errorf("tcp: setup push: %d home blobs for %d workers", len(homes), len(c.workers))
	}
	c.homes, c.factors, c.columns = homes, nil, nil
	for _, w := range c.workers {
		w.mu.Lock()
		w.queued, w.holds = nil, nil
		w.mu.Unlock()
	}
	return c.pushAll(ctx, transport.StateSetup, func(m int) []byte { return homes[m] }, func(m int, w *worker) {
		w.holds = map[int]bool{m: true}
	})
}

// PushState implements transport.Transport: record the blob in the replay
// log, then ship factors to every live worker concurrently, or queue a
// column for each live worker's next request. Workers that fail mid-push
// are marked down (they will be replayed the same state on rejoin); the
// push only errors if an executor rejects the state or no live workers
// remain.
func (c *Coordinator) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	switch kind {
	case transport.StateFactors:
		c.factors, c.columns = payload, nil
		for _, w := range c.workers {
			w.mu.Lock()
			w.queued = nil
			w.mu.Unlock()
		}
		return c.pushAll(ctx, kind, func(int) []byte { return payload }, nil)
	case transport.StateColumn:
		c.columns = append(c.columns, payload)
		live := 0
		for _, w := range c.workers {
			w.mu.Lock()
			if w.conn != nil {
				w.queued = append(w.queued, transport.StateBlob{Kind: kind, Payload: payload})
				live++
			}
			w.mu.Unlock()
		}
		if live == 0 {
			return fmt.Errorf("tcp: state push (%s): no live workers", kind)
		}
		return nil
	}
	return fmt.Errorf("tcp: state push (%s): not a broadcast state kind", kind)
}

// pushAll sends every live machine m a MsgState of kind carrying
// payload(m), all machines concurrently, and waits for every reply.
// acked, when non-nil, runs under the machine's lock after an
// acknowledged push. Machines whose connection dies are marked down and
// skipped; a rejected push fails the whole push, naming the
// lowest-numbered rejecting machine so the error is deterministic.
func (c *Coordinator) pushAll(ctx context.Context, kind transport.StateKind, payload func(m int) []byte, acked func(m int, w *worker)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for m, w := range c.workers {
		wg.Add(1)
		go func(m int, w *worker) {
			defer wg.Done()
			w.mu.Lock()
			defer w.mu.Unlock()
			resp, err := c.callLocked(m, w, &transport.Msg{Type: transport.MsgState, State: kind, Payload: payload(m)})
			switch {
			case err != nil:
			case resp.Type != transport.MsgAck:
				err = fmt.Errorf("worker %d replied %d, want ack", m, resp.Type)
			case acked != nil:
				acked(m, w)
			}
			errs[m] = err
		}(m, w)
	}
	// Each call is bounded by CallTimeout, so the join is too.
	wg.Wait() //dbtf:blocking every push goroutine's socket exchange carries the CallTimeout deadline
	live := 0
	for _, err := range errs {
		switch {
		case errors.Is(err, errDown):
		case err != nil:
			return fmt.Errorf("tcp: state push (%s): %w", kind, err)
		default:
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("tcp: state push (%s): no live workers", kind)
	}
	return nil
}

// batch is one machine's share of a stage: the tasks whose home is that
// machine, executed wherever the ring currently routes them.
type batch struct {
	home  int
	tasks []int
}

type batchOutcome struct {
	b    batch
	outs []transport.TaskOutput
	exec int
	err  error
}

// executorFor routes a batch: the home machine if it is live, else the
// first live ring successor — the same successor rule the cluster engine's
// reassignment uses, so simulated and real reassignment agree.
func (c *Coordinator) executorFor(home int) (int, error) {
	n := len(c.workers)
	for i := 0; i < n; i++ {
		m := (home + i) % n
		if c.alive(m) {
			return m, nil
		}
	}
	return 0, errors.New("tcp: no live workers")
}

// runBatch sends one stage batch to machine exec. The request carries the
// machine's queued columns and — when exec stands in for a down home it
// has not adopted yet — that home's setup blob, applied before the tasks.
// The queue is spent only by an answered request; a machine that dies
// with it is replayed instead.
func (c *Coordinator) runBatch(exec, home int, spec transport.Spec, tasks []int) (*transport.Msg, error) {
	w := c.workers[exec]
	w.mu.Lock()
	defer w.mu.Unlock()
	states := w.queued
	adopt := exec != home && !w.holds[home] && c.homes != nil
	if adopt {
		states = append(states[:len(states):len(states)], transport.StateBlob{Kind: transport.StateAdopt, Payload: c.homes[home]})
	}
	resp, err := c.callLocked(exec, w, &transport.Msg{Type: transport.MsgRun, Spec: spec, Tasks: tasks, States: states})
	if err != nil {
		return nil, err
	}
	w.queued = nil
	if adopt {
		if w.holds == nil {
			w.holds = map[int]bool{}
		}
		w.holds[home] = true
	}
	return resp, nil
}

// Run implements transport.Transport: partition the stage's tasks into
// per-home-machine batches, execute the batches concurrently, and deliver
// results sequentially. A batch whose connection dies is relaunched on the
// ring successor; executor replies are all-or-nothing per batch, so a
// retried batch never double-delivers.
func (c *Coordinator) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	n := len(c.workers)
	byHome := make([][]int, n)
	for t := 0; t < spec.Tasks; t++ {
		byHome[t%n] = append(byHome[t%n], t)
	}
	var queue []batch
	for home, tasks := range byHome {
		if len(tasks) > 0 {
			queue = append(queue, batch{home: home, tasks: tasks})
		}
	}
	for round := 0; len(queue) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if round > n {
			return errors.New("tcp: stage retries exceeded machine count")
		}
		results := make(chan batchOutcome, len(queue))
		for _, b := range queue {
			exec, err := c.executorFor(b.home)
			if err != nil {
				return fmt.Errorf("tcp: stage %q: %w", spec.Name, err)
			}
			go func(b batch, exec int) {
				resp, err := c.runBatch(exec, b.home, spec, b.tasks)
				if err != nil {
					results <- batchOutcome{b: b, exec: exec, err: err}
					return
				}
				if resp.Type != transport.MsgResult || len(resp.Outputs) != len(b.tasks) {
					results <- batchOutcome{b: b, exec: exec,
						err: &remoteError{msg: fmt.Sprintf("worker %d: malformed stage reply", exec)}}
					return
				}
				results <- batchOutcome{b: b, exec: exec, outs: resp.Outputs}
			}(b, exec)
		}
		var requeue []batch
		var fatal error
		for range queue {
			var o batchOutcome
			select {
			case o = <-results:
			case <-ctx.Done():
				// Abandon the round: results is buffered to len(queue), so
				// stragglers deposit their outcome and exit without a
				// receiver, and each in-flight call is bounded by
				// CallTimeout. Before this select a cancelled run sat in
				// the bare receive until the slowest call timed out.
				return ctx.Err()
			}
			switch {
			case errors.Is(o.err, errDown):
				requeue = append(requeue, o.b)
			case o.err != nil:
				if fatal == nil {
					fatal = o.err
				}
			case fatal == nil:
				for _, out := range o.outs {
					if err := deliver(transport.TaskResult{
						Task:    out.Task,
						Machine: o.exec,
						Nanos:   out.Nanos,
						Payload: out.Payload,
					}); err != nil && fatal == nil {
						fatal = err
					}
				}
			}
		}
		if fatal != nil {
			return fatal
		}
		queue = requeue
	}
	return nil
}

var _ transport.Transport = (*Coordinator)(nil)
