package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/qserv"
)

// perfectQubits sizes the perfect stack as qservd does by default.
const perfectQubits = 10

// Warm-up sizes: ops per client after the cache fill or session open.
var warmOps = map[string]int{hotSubmit: 32, coldCompile: 8, variationalBind: 2}

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID          string     `json:"id"`
	Status      string     `json:"status"`
	CacheHit    bool       `json:"cache_hit"`
	Engine      string     `json:"engine"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Result      *struct {
		Counts map[string]int `json:"counts"`
		Shots  int            `json:"shots"`
	} `json:"result"`
}

// sample is one op as a client saw it.
type sample struct {
	Op   Op
	Sent time.Time // submit (or bind) request sent
	Ack  time.Time // submit response received
	Done time.Time // result received
	View jobView
	Err  error
}

func (s *sample) latency() time.Duration { return s.Done.Sub(s.Sent) }

// harness is a qserv booted in-process with its default Config, served
// over loopback HTTP, plus one keep-alive client per benchmark client.
type harness struct {
	svc      *qserv.Service
	srv      *http.Server
	served   chan error
	base     string
	clients  []*http.Client
	sessions []string // variational_bind: session ID per client
}

// boot starts the service the way qservd wires it (DefaultService with
// the default Config and a 10-qubit perfect stack) behind an HTTP server
// on an ephemeral loopback port.
func boot(clients int) (*harness, error) {
	svc := qserv.DefaultService(qserv.Config{}, perfectQubits, 0)
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		h.clients = append(h.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return h, nil
}

// close shuts the server down, drains the service and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // on timeout Close below still stops it
	_ = h.srv.Close()
	<-h.served
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	h.svc.Stop()
}

// warm is the set-up after boot: fill the compile cache with the
// working set (hot_submit) or open one session per client
// (variational_bind), then run warmOps ops per client so connections,
// code paths and the heap are warm before timing. The warm-up ops come
// from the warmSeed stream, under client IDs after the timed clients',
// so they never repeat a timed cold_compile program.
func (h *harness) warm(st *stream) error {
	ws, err := newStream(st.workload, warmSeed)
	if err != nil {
		return err
	}
	switch st.workload {
	case hotSubmit:
		for _, op := range st.set {
			op.Seed = 1
			if s := h.do(0, op); s.Err != nil {
				return fmt.Errorf("cache fill: %w", s.Err)
			}
		}
	case variationalBind:
		for c := range h.clients {
			a, err := st.Ansatz(c)
			if err != nil {
				return err
			}
			id, err := h.openSession(c, a)
			if err != nil {
				return err
			}
			h.sessions = append(h.sessions, id)
		}
	}
	n := len(h.clients)
	return h.eachClient(func(c int) error {
		for i := 0; i < warmOps[st.workload]; i++ {
			op, err := ws.Op(n+c, i)
			if err != nil {
				return err
			}
			if s := h.do(c, op); s.Err != nil {
				return fmt.Errorf("warm-up: %w", s.Err)
			}
		}
		return nil
	})
}

// keepEvery sets the seeded share (1 op in keepEvery, plus each
// client's first op) of checked ops whose full result the loop keeps for
// the replay checks. Every op is checked as it completes; keeping only
// timings for the rest keeps the benchmark's own memory out of
// peak_rss_mb.
const keepEvery = 32

// maxProblems caps the check failures a run reports.
const maxProblems = 20

// windows is how many equal sub-windows the timed window is split into.
// The end-to-end metrics are medians over the sub-windows, so a host
// disturbance confined to fewer than half of them does not move them.
const windows = 5

// record is what the loop keeps of every op that completed and passed
// its checks.
type record struct {
	done                                   time.Duration // completion, from the window start
	latency, rtt, queue, service, overhead time.Duration
	stabilizer                             bool
}

// loopRun is the outcome of a closed loop.
type loopRun struct {
	records   []record
	kept      []sample
	attempted int
	failed    int      // ops that failed or were refused
	problems  []string // the first maxProblems check failures
	elapsed   time.Duration
	// cuts holds the process usage at the window start, at each
	// sub-window boundary and at the end: windows+1 snapshots.
	cuts []usage
}

// closedLoop runs every client's stream from op 0 for d: each client
// sends its next op only after the previous result arrived, and checks
// it (checkSample). elapsed runs until the last client finished its
// in-flight op.
func (h *harness) closedLoop(st *stream, d time.Duration) (loopRun, error) {
	per := make([]loopRun, len(h.clients))
	cuts := make([]usage, windows+1)
	start := time.Now()
	cuts[0] = readUsage()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < windows; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / windows)))
			cuts[k] = readUsage()
		}
	}()
	err := h.eachClient(func(c int) error {
		run := &per[c]
		for i := 0; time.Since(start) < d; i++ {
			op, err := st.Op(c, i)
			if err != nil {
				return err
			}
			s := h.do(c, op)
			run.attempted++
			if s.Err != nil {
				run.failed++
			}
			if err := checkSample(st.workload, &s); err != nil {
				run.problems = append(run.problems, err.Error())
				continue
			}
			run.records = append(run.records, record{
				done:       s.Done.Sub(start),
				latency:    s.latency(),
				rtt:        s.Ack.Sub(s.Sent),
				queue:      s.View.StartedAt.Sub(s.View.SubmittedAt),
				service:    s.View.FinishedAt.Sub(*s.View.StartedAt),
				overhead:   s.latency() - s.View.FinishedAt.Sub(s.View.SubmittedAt),
				stabilizer: s.View.Engine == "stabilizer",
			})
			if i == 0 || derive(st.seed, tagKeep, uint64(c), uint64(i))%keepEvery == 0 {
				run.kept = append(run.kept, s)
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	wg.Wait()
	cuts[windows] = readUsage()
	out := loopRun{elapsed: elapsed, cuts: cuts}
	for _, r := range per {
		out.records = append(out.records, r.records...)
		out.kept = append(out.kept, r.kept...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
	}
	out.problems = out.problems[:min(len(out.problems), maxProblems)]
	return out, err
}

// eachClient runs f for every client concurrently and waits for all.
func (h *harness) eachClient(f func(c int) error) error {
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// do sends one op on client c's connection and long-polls its result.
func (h *harness) do(c int, op Op) sample {
	s := sample{Op: op}
	var (
		url  string
		body any
	)
	if op.Values != nil {
		url = h.base + "/sessions/" + h.sessions[c] + "/bind"
		body = qserv.BindJSON{Values: op.Values, Shots: op.Shots, Seed: op.Seed}
	} else {
		url = h.base + "/submit"
		body = qserv.SubmitRequest{CQASM: op.CQASM, Backend: op.Backend, Shots: op.Shots, Seed: op.Seed, Calibration: op.Calibration}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		s.Err = err
		return s
	}
	var ack qserv.SubmitResponse
	s.Sent = time.Now()
	if s.Err = h.call(c, http.MethodPost, url, buf, http.StatusAccepted, &ack); s.Err != nil {
		return s
	}
	s.Ack = time.Now()
	for {
		if s.Err = h.call(c, http.MethodGet, h.base+"/jobs/"+ack.ID+"?wait=60s", nil, http.StatusOK, &s.View); s.Err != nil {
			return s
		}
		if s.View.Status == string(qserv.StatusDone) || s.View.Status == string(qserv.StatusFailed) {
			break
		}
	}
	s.Done = time.Now()
	if s.View.Status != string(qserv.StatusDone) {
		s.Err = fmt.Errorf("job %s %s: %s", s.View.ID, s.View.Status, s.View.Error)
	}
	return s
}

// openSession opens client c's variational session on perfect.
func (h *harness) openSession(c int, a ansatz) (string, error) {
	buf, err := json.Marshal(qserv.OpenSessionJSON{CQASM: a.CQASM, Backend: perfect, Shots: bindShots})
	if err != nil {
		return "", err
	}
	var view struct {
		ID string `json:"id"`
	}
	err = h.call(c, http.MethodPost, h.base+"/sessions", buf, http.StatusCreated, &view)
	return view.ID, err
}

// call makes one request on client c and decodes the response body into
// out, failing on any status other than want.
func (h *harness) call(c int, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
