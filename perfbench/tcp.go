package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbtf/internal/core"
	"dbtf/internal/transport"
	"dbtf/internal/transport/tcp"
)

// hostTimes accumulates how long one worker's host spent applying state
// pushes and running stage tasks.
type hostTimes struct {
	apply, run atomic.Int64 // nanoseconds
}

// timedHost wraps a worker's transport.Host and times every call into it.
type timedHost struct {
	inner transport.Host
	t     *hostTimes
}

func (h *timedHost) Apply(kind transport.StateKind, payload []byte) error {
	start := time.Now()
	err := h.inner.Apply(kind, payload)
	h.t.apply.Add(int64(time.Since(start)))
	return err
}

func (h *timedHost) RunTask(spec transport.Spec, task int) ([]byte, error) {
	start := time.Now()
	out, err := h.inner.RunTask(spec, task)
	h.t.run.Add(int64(time.Since(start)))
	return out, err
}

// timedBatchHost is timedHost for hosts that run whole stage batches. The
// tcp server type-asserts for transport.BatchHost and otherwise falls back
// to per-task RunTask calls, so the wrapper must keep the capability or the
// benchmark would measure a different program.
type timedBatchHost struct {
	timedHost
	batch transport.BatchHost
}

func (h *timedBatchHost) RunBatch(spec transport.Spec, tasks []int) ([]transport.TaskOutput, error) {
	start := time.Now()
	out, err := h.batch.RunBatch(spec, tasks)
	h.t.run.Add(int64(time.Since(start)))
	return out, err
}

// timeHost wraps h, keeping transport.BatchHost when h implements it.
func timeHost(h transport.Host, t *hostTimes) transport.Host {
	th := timedHost{inner: h, t: t}
	if bh, ok := h.(transport.BatchHost); ok {
		return &timedBatchHost{timedHost: th, batch: bh}
	}
	return &th
}

// countingListener counts the bytes every accepted connection reads and
// writes: the worker side of the wire.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// loopbackWorkers is a set of in-process tcp worker servers on loopback,
// each serving core.NewWorkerThreads(1), the host cmd/dbtf-worker builds.
type loopbackWorkers struct {
	addrs   []string
	servers []*tcp.Server
	times   []*hostTimes
	wire    atomic.Int64
	// wg joins the Serve goroutines; serveErrs[i] is server i's Serve
	// result, readable once wg.Wait returns.
	wg        sync.WaitGroup
	serveErrs []error
}

func startWorkers(n int) (*loopbackWorkers, error) {
	w := &loopbackWorkers{serveErrs: make([]error, n)}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, w.stop())
		}
		t := &hostTimes{}
		srv := tcp.NewServer(timeHost(core.NewWorkerThreads(1), t), nil)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.serveErrs[i] = srv.Serve(countingListener{Listener: lis, bytes: &w.wire})
		}()
		w.addrs = append(w.addrs, lis.Addr().String())
		w.servers = append(w.servers, srv)
		w.times = append(w.times, t)
	}
	return w, nil
}

// stop shuts every server down and waits until each Serve has returned.
func (w *loopbackWorkers) stop() error {
	var errs []error
	for _, srv := range w.servers {
		errs = append(errs, srv.Shutdown(5*time.Second))
	}
	w.wg.Wait()
	w.servers = nil
	return errors.Join(append(errs, w.serveErrs...)...)
}

// dial times one DialContext plus Close against the workers: the
// connection set-up every Factorize call over Workers pays.
func (w *loopbackWorkers) dial(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	co, err := tcp.DialContext(ctx, tcp.Config{Addrs: w.addrs})
	if err != nil {
		return 0, fmt.Errorf("dialing loopback workers: %w", err)
	}
	if err := co.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// snapshot returns the per-worker apply and run nanoseconds so far.
func (w *loopbackWorkers) snapshot() (apply, run []int64) {
	for _, t := range w.times {
		apply = append(apply, t.apply.Load())
		run = append(run, t.run.Load())
	}
	return apply, run
}

// maxDelta returns the largest per-worker difference after[i]-before[i],
// in seconds: the busiest worker, which the coordinator waits for.
func maxDelta(before, after []int64) float64 {
	var m int64
	for i := range after {
		if d := after[i] - before[i]; d > m {
			m = d
		}
	}
	return float64(m) / 1e9
}
