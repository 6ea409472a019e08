package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtf/internal/cluster"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
	"dbtf/internal/transport/tcp"
)

// tcpFleet is a set of in-process tcp stage servers on loopback, each
// serving its own Worker, whose listeners record every byte the servers
// read: the coordinator's side of the conversation, frame for frame.
type tcpFleet struct {
	addrs   []string
	workers []*Worker
	servers []*tcp.Server
	reads   []*recorder
	wg      sync.WaitGroup
}

// recorder accumulates the bytes one server read, over all connections.
type recorder struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recorder) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

type recordingListener struct {
	net.Listener
	rec *recorder
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return recordingConn{Conn: c, rec: l.rec}, nil
}

type recordingConn struct {
	net.Conn
	rec *recorder
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.mu.Lock()
	c.rec.buf.Write(p[:n])
	c.rec.mu.Unlock()
	return n, err
}

func startTCPFleet(t *testing.T, n int) *tcpFleet {
	t.Helper()
	f := &tcpFleet{}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker()
		rec := &recorder{}
		srv := tcp.NewServer(w, nil)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := srv.Serve(recordingListener{Listener: lis, rec: rec}); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}()
		f.addrs = append(f.addrs, lis.Addr().String())
		f.workers = append(f.workers, w)
		f.servers = append(f.servers, srv)
		f.reads = append(f.reads, rec)
	}
	t.Cleanup(func() {
		for _, srv := range f.servers {
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}
		f.wg.Wait()
	})
	return f
}

// decompose runs Decompose over a fresh coordinator dialed to the fleet,
// tracing into buf.
func (f *tcpFleet) decompose(t *testing.T, x *tensor.Tensor, opt Options, buf *trace.Buffer) (*Result, error) {
	t.Helper()
	co, err := tcp.Dial(tcp.Config{Addrs: f.addrs, CallTimeout: 10 * time.Second, RedialBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := co.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	tr := trace.New(buf)
	res, err := Decompose(context.Background(), x, cluster.New(cluster.Config{
		Machines: len(f.addrs), Transport: co, Tracer: tr,
	}), opt)
	if cerr := tr.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return res, err
}

// frames decodes the recorded coordinator → worker stream of machine m.
func (f *tcpFleet) frames(t *testing.T, m int) []*transport.Msg {
	t.Helper()
	r := bytes.NewReader(f.reads[m].bytes())
	var out []*transport.Msg
	for r.Len() > 0 {
		msg, _, err := transport.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("worker %d: frame %d: %v", m, len(out), err)
		}
		out = append(out, msg)
	}
	return out
}

// heldHomes returns the homes whose setup shares worker w holds, and its
// held partition indices per mode.
func heldHomes(w *Worker) (homes map[int]bool, parts [3][]int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	homes = map[int]bool{}
	//dbtf:allow-nondeterministic test bookkeeping: a set, read back by membership only
	for h := range w.shares {
		homes[h] = true
	}
	for m := range parts {
		for pi := 0; pi < 64; pi++ {
			if w.parts[m][pi] != nil {
				parts[m] = append(parts[m], pi)
			}
		}
	}
	return homes, parts
}

func isRemoteStage(name string) bool {
	return strings.HasPrefix(name, "build:") || strings.HasPrefix(name, "eval:") || strings.HasPrefix(name, "total-error")
}

// TestSteadyTCPRunRoundTrips counts the frames a failure-free tcp run
// sends each worker: one handshake, one setup push, one factors push per
// iteration, exactly one request per remote stage — no pings and no
// standalone column pushes. The columns still arrive, riding on the
// stage requests.
func TestSteadyTCPRunRoundTrips(t *testing.T) {
	const machines = 3
	rng := rand.New(rand.NewSource(21))
	x, _, _, _ := plantedTensor(rng, 14, 12, 10, 3, 0.3)
	opt := Options{Rank: 3, MaxIter: 4, MinIter: 4, Seed: 2}
	f := startTCPFleet(t, machines)
	buf := &trace.Buffer{}
	res, err := f.decompose(t, x, opt, buf)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Decompose(context.Background(), x, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.A.Equal(sim.A) || !res.B.Equal(sim.B) || !res.C.Equal(sim.C) || res.Error != sim.Error {
		t.Fatal("tcp factors differ from simulated")
	}
	stages := 0
	for _, ev := range buf.Events {
		if ev.Type == trace.StageBegin && isRemoteStage(ev.Name) {
			stages++
		}
	}
	if stages == 0 {
		t.Fatal("trace shows no remote stages")
	}
	for m := 0; m < machines; m++ {
		counts := map[string]int{}
		columns := 0
		for _, msg := range f.frames(t, m) {
			switch msg.Type {
			case transport.MsgState:
				counts[msg.State.String()]++
			case transport.MsgRun:
				counts["run"]++
				for _, st := range msg.States {
					if st.Kind == transport.StateColumn {
						columns++
					} else {
						t.Errorf("worker %d: steady request carried %s state", m, st.Kind)
					}
				}
			case transport.MsgHello:
				counts["hello"]++
			case transport.MsgPing:
				counts["ping"]++
			default:
				counts[fmt.Sprintf("type%d", msg.Type)]++
			}
		}
		want := map[string]int{"hello": 1, "setup": 1, "factors": res.Iterations, "run": stages}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Errorf("worker %d received %v, want %v", m, counts, want)
		}
		// Every committed column reached every worker: rank columns per
		// mode per iteration.
		if wantCols := 3 * opt.Rank * res.Iterations; columns != wantCols {
			t.Errorf("worker %d applied %d queued columns, want %d", m, columns, wantCols)
		}
	}
}

// TestWorkersHoldOnlyOwnPartitions: after a run, worker m holds exactly
// the partitions pi with pi mod M == m of every mode, and the setup bytes
// the fleet received at M=4 stay within 1.25× those at M=2 — each
// nonzero ships once, not once per machine.
func TestWorkersHoldOnlyOwnPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// Large enough that the nonzeros, not the per-frame overhead, make up
	// the setup bytes.
	x, _, _, _ := plantedTensor(rng, 48, 40, 36, 3, 0.3)
	setupBytes := map[int]int64{}
	for _, machines := range []int{2, 4} {
		opt := Options{Rank: 3, MaxIter: 2, Seed: 1, Partitions: 6}
		f := startTCPFleet(t, machines)
		buf := &trace.Buffer{}
		if _, err := f.decompose(t, x, opt, buf); err != nil {
			t.Fatal(err)
		}
		for _, ev := range buf.Events {
			if ev.Type == trace.Wire && ev.Name == "state:setup" {
				setupBytes[machines] += ev.Bytes
			}
		}
		for m, w := range f.workers {
			homes, parts := heldHomes(w)
			if len(homes) != 1 || !homes[m] {
				t.Fatalf("M=%d: worker %d holds the shares of homes %v, want only its own", machines, m, homes)
			}
			for mode, held := range parts {
				var want []int
				for pi := m; pi < opt.Partitions; pi += machines {
					want = append(want, pi)
				}
				if fmt.Sprint(held) != fmt.Sprint(want) {
					t.Fatalf("M=%d: worker %d holds mode-%d partitions %v, want %v", machines, m, mode+1, held, want)
				}
			}
		}
	}
	t.Logf("setup wire bytes: %d at M=2, %d at M=4 (%d nonzeros)", setupBytes[2], setupBytes[4], x.NNZ())
	if setupBytes[2] == 0 || float64(setupBytes[4]) > 1.25*float64(setupBytes[2]) {
		t.Fatalf("setup wire bytes %d at M=4 vs %d at M=2, want at most 1.25×", setupBytes[4], setupBytes[2])
	}
}

// TestKilledWorkerShareAdoptedBySuccessor stops machine 1's server between
// stages. Its next request fails, the batch reroutes to machine 2, which
// adopts machine 1's setup share in the same request — and the factors
// stay bit-identical to the simulated run.
func TestKilledWorkerShareAdoptedBySuccessor(t *testing.T) {
	const machines = 3
	rng := rand.New(rand.NewSource(23))
	x, _, _, _ := plantedTensor(rng, 14, 12, 10, 3, 0.3)
	opt := Options{Rank: 3, MaxIter: 4, MinIter: 4, Seed: 3}
	sim, err := Decompose(context.Background(), x, testCluster(machines), opt)
	if err != nil {
		t.Fatal(err)
	}
	f := startTCPFleet(t, machines)
	killed := false
	opt.Trace = func(format string, args ...any) {
		if !killed && strings.HasPrefix(fmt.Sprintf(format, args...), "initial set") {
			killed = true
			// No drain budget: the idle connection closes at once.
			if err := f.servers[1].Shutdown(0); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}
	}
	res, err := f.decompose(t, x, opt, &trace.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("the kill was never injected")
	}
	if !res.A.Equal(sim.A) || !res.B.Equal(sim.B) || !res.C.Equal(sim.C) || res.Error != sim.Error {
		t.Fatal("factors after the reroute differ from simulated")
	}
	if res.Stats.MachineLosses < 1 {
		t.Fatalf("MachineLosses = %d, want >= 1", res.Stats.MachineLosses)
	}
	homes, parts := heldHomes(f.workers[2])
	if !homes[1] || !homes[2] {
		t.Fatalf("successor holds the shares of homes %v, want its own and the lost machine's", homes)
	}
	if fmt.Sprint(parts[0]) != "[1 2]" {
		t.Fatalf("successor holds mode-1 partitions %v, want [1 2]", parts[0])
	}
	if homes, _ := heldHomes(f.workers[0]); len(homes) != 1 {
		t.Fatalf("machine 0 holds the shares of homes %v, want only its own", homes)
	}
}

// TestResumeMismatchShipsNothing: a resume whose checkpoint does not match
// the run fails before any setup share is shipped.
func TestResumeMismatchShipsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, _, _, _ := plantedTensor(rng, 10, 10, 10, 2, 0.3)
	dir := t.TempDir()
	opt := Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5, CheckpointDir: dir}
	if _, err := Decompose(context.Background(), x, testCluster(2), opt); err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(x, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy un-namespaced name makes the stale file visible to a
	// changed config, which must refuse it.
	if err := os.Rename(filepath.Join(dir, CheckpointFileName(fp)), filepath.Join(dir, CheckpointFile)); err != nil {
		t.Fatal(err)
	}
	opt.Seed = 6
	opt.Resume = true
	ht := newHostTransport(2)
	_, err = Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: 2, Transport: ht}), opt)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume under a changed config returned %v, want fingerprint mismatch", err)
	}
	if got := ht.setupBytes.Load(); got != 0 {
		t.Fatalf("a failed resume shipped %d setup bytes, want 0", got)
	}
}
