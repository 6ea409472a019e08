package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dbtf"
	"dbtf/internal/serve"
)

// serveMachines is serve.Config's default Machines: the local reference
// runs must use the same machine count to reproduce a served job's factors.
const serveMachines = 4

// serveJob is one submission of the serve probe.
type serveJob struct {
	due   time.Time
	large bool
	spec  serve.JobSpec
	id    string // empty when the submission was not admitted
	view  serve.JobView
}

// session is one in-process serve.Server behind its HTTP handler on
// loopback, with its data directory under the benchmark's own directory.
type session struct {
	dataDir string
	srv     *serve.Server
	http    *http.Server
	url     string
	client  *http.Client
	// wg joins the HTTP Serve goroutine; serveErr is its result, readable
	// once wg.Wait returns.
	wg       sync.WaitGroup
	serveErr error
}

func startSession(inputs []*planted, uploads *[]float64) (*session, error) {
	parent := filepath.Join("perfbench", ".work")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(parent, "serve-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dataDir})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dataDir))
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, errors.Join(err, os.RemoveAll(dataDir))
	}
	s := &session{
		dataDir: dataDir, srv: srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + lis.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     machines(),
			MaxIdleConnsPerHost: machines(),
		}},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveErr = s.http.Serve(lis)
	}()
	for _, p := range inputs {
		var body bytes.Buffer
		if err := p.x.WriteBinary(&body); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		start := time.Now()
		status, _, err := s.post("/v1/tensors/"+p.meta.Name, "application/octet-stream", &body)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("uploading %s: HTTP %d", p.meta.Name, status)
		}
		if err != nil {
			return nil, errors.Join(err, s.stop())
		}
		*uploads = append(*uploads, time.Since(start).Seconds())
	}
	return s, nil
}

func (s *session) post(path, ctype string, body io.Reader) (int, []byte, error) {
	resp, err := s.client.Post(s.url+path, ctype, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, b, err
}

// stop shuts the HTTP server and the job server down, waits for both, and
// removes the data directory.
func (s *session) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.wg.Wait()
	if !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = errors.Join(err, s.serveErr)
	}
	s.client.CloseIdleConnections()
	s.srv.Drain()
	return errors.Join(err, os.RemoveAll(s.dataDir))
}

// probeRate is the serve probe's offered load in jobs per second.
const probeRate = 20

// drive submits jobs in order at seeded Poisson times from one goroutine,
// then waits until every admitted job is terminal.
func (s *session) drive(r *run, rng *rand.Rand, jobs []*serveJob) (late, submits []float64, err error) {
	due := time.Now()
	for i, j := range jobs {
		due = due.Add(time.Duration(rng.ExpFloat64() / probeRate * float64(time.Second)))
		j.due = due
		body, err := json.Marshal(&j.spec)
		if err != nil {
			return nil, nil, err
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		late = append(late, sent.Sub(due).Seconds())
		status, resp, err := s.post("/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, fmt.Errorf("submitting: %w", err)
		}
		submits = append(submits, time.Since(sent).Seconds())
		r.attempted++
		switch status {
		case http.StatusAccepted:
			var v serve.JobView
			if err := json.Unmarshal(resp, &v); err != nil {
				return nil, nil, fmt.Errorf("decoding submit reply: %w", err)
			}
			j.id = v.ID
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			r.check(false, "job %d shed: %s", i, resp)
		default:
			r.check(false, "job %d refused: HTTP %d %s", i, status, resp)
		}
	}
	deadline := time.Now().Add(90 * time.Second)
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		for {
			v, ok := s.srv.JobByID(j.id)
			if ok && v.State.Terminal() {
				j.view = v
				break
			}
			if !ok || time.Now().After(deadline) {
				r.check(false, "job %s lost (known %v, state %s)", j.id, ok, v.State)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if j.view.State != "" && j.view.State != serve.StateDone {
			r.check(false, "job %s ended %s: %s", j.id, j.view.State, j.view.Error)
		}
	}
	return late, submits, nil
}

// serveLayer reports the serve layer's own metrics for a finished
// session.
func (r *run) serveLayer(s *session, jobs []*serveJob, late, submits []float64) {
	var queueWait, runSmall, runLarge []float64
	for _, j := range jobs {
		if j.view.State != serve.StateDone {
			continue
		}
		run := float64(j.view.FinishedNanos-j.view.StartedNanos) / 1e9
		if j.large {
			runLarge = append(runLarge, run)
		} else {
			runSmall = append(runSmall, run)
			queueWait = append(queueWait, float64(j.view.StartedNanos-j.view.SubmittedNanos)/1e9)
		}
	}
	st := s.srv.StatsSnapshot()
	var shed int64
	for _, n := range st.Shed {
		shed += n
	}
	r.set("serve.submit_s", median(submits))
	r.set("serve.queue_wait_s.small", median(queueWait))
	r.set("serve.run_s.small", median(runSmall))
	r.set("serve.run_s.large", median(runLarge))
	r.set("serve.evictions", float64(st.Evictions))
	r.set("serve.shed", float64(shed))
	lateMax := slices.Max(late)
	r.set("serve.gen_late_s", lateMax)
	var busy float64
	for _, x := range append(runSmall, runLarge...) {
		busy += x
	}
	note("serve: %d jobs, evictions %d shed %d, generator at most %.6f s late, job run time %.3f s over %.3f s of arrivals",
		len(jobs), st.Evictions, shed, lateMax, busy, jobs[len(jobs)-1].due.Sub(jobs[0].due).Seconds())
}

// checkJobs reruns every done job locally through dbtf.Factorize on the
// server's machine count and checks that the served result equals the
// local one.
func (r *run) checkJobs(ctx context.Context, jobs []*serveJob) {
	refs := map[string]ref{}
	for _, j := range jobs {
		if j.view.State != serve.StateDone {
			continue
		}
		in := r.input(j.spec.TensorID)
		res, err := dbtf.Factorize(ctx, in.x, dbtf.Options{Rank: j.spec.Rank, MaxIter: j.spec.MaxIter,
			MinIter: j.spec.MinIter, Seed: j.spec.Seed, Machines: serveMachines})
		r.attempted++
		if err != nil {
			r.check(false, "local rerun of %s: %v", j.id, err)
			continue
		}
		r.checkResult(refs, j.id, in.x, res)
		got := j.view.Result
		r.check(got != nil && got.FactorHash == refs[j.id].hash && got.Error == res.Error,
			"job %s: served result %+v != local run hash %s error %d", j.id, got, refs[j.id].hash, res.Error)
	}
}

// serveProbe measures the serve layer on the workload's inputs: a short
// session uploads them, runs five small jobs from four tenants and then
// one large job with the workload's options, and every done job is
// checked against a local run.
func (r *run) serveProbe(ctx context.Context, x *planted, opts dbtf.Options) (err error) {
	var uploads []float64
	s, err := startSession(r.inputs, &uploads)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.stop()) }()
	r.set("serve.upload_s", median(uploads))
	rng := rand.New(rand.NewSource(r.seed*31 + 11))
	smalls := r.smalls()
	tenants := []string{"t0", "t1", "t2", "t3"}
	jobs := make([]*serveJob, 6)
	for i := range jobs {
		j := &serveJob{large: i == len(jobs)-1}
		if j.large {
			j.spec = serve.JobSpec{TensorID: x.meta.Name, Rank: opts.Rank, MinIter: opts.MinIter, MaxIter: opts.MaxIter}
		} else {
			j.spec = serve.JobSpec{TensorID: smalls[rng.Intn(len(smalls))].meta.Name, Rank: 4}
		}
		j.spec.Tenant = tenants[rng.Intn(len(tenants))]
		j.spec.Seed = rng.Int63n(1 << 40)
		jobs[i] = j
	}
	late, submits, err := s.drive(r, rng, jobs)
	if err != nil {
		return err
	}
	r.serveLayer(s, jobs, late, submits)
	r.checkJobs(ctx, jobs)
	return nil
}
