package qserv

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/target"
)

// post sends one JSON body through the service's HTTP handler.
func post(s *Service, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// After Drain every admission path — jobs, session opens and binds on a
// session opened before the drain — rejects with ErrStopped.
func TestAdmissionStoppedOnEveryPath(t *testing.T) {
	s := twoBackendService(t, Config{})
	sess, err := s.OpenSession(Request{Program: bellProgram("open"), Backend: "perfect", Shots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{CQASM: bellCQASM, Backend: "perfect"}); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after Drain = %v, want ErrStopped", err)
	}
	if _, err := s.OpenSession(Request{Program: bellProgram("late"), Backend: "perfect"}); !errors.Is(err, ErrStopped) {
		t.Errorf("OpenSession after Drain = %v, want ErrStopped", err)
	}
	if _, err := s.BindSession(sess.ID, BindRequest{}); !errors.Is(err, ErrStopped) {
		t.Errorf("BindSession after Drain = %v, want ErrStopped", err)
	}
}

// A full lane answers 503 with Retry-After on both job routes.
func TestAdmissionQueueFullHTTP(t *testing.T) {
	s := New(Config{QueueSize: 2, CompileWorkers: 1, Seed: 3})
	s.AddBackend(NewStackBackend(core.NewPerfect(5, 3)), 1)
	s.Start()
	t.Cleanup(s.Stop)
	sess, err := s.OpenSession(Request{Program: ansatzProgram(nil), Shots: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the service's only kernel-compile token: the lane's single
	// worker blocks compiling the first bell job and the lane fills
	// behind it. Cleanups run last-in first-out, so the token is back
	// before Stop drains the lane.
	s.env.Gate.Acquire()
	t.Cleanup(s.env.Gate.Release)
	for i := 0; ; i++ {
		_, err := s.Submit(Request{CQASM: bellCQASM, Shots: 4})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 10 {
			t.Fatal("lane never filled")
		}
		time.Sleep(time.Millisecond)
	}

	submit, err := json.Marshal(SubmitRequest{CQASM: bellCQASM, Shots: 4})
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/submit":                        string(submit),
		"/sessions/" + sess.ID + "/bind": `{"values":{"gamma":1,"beta":2}}`,
	} {
		rec := post(s, path, body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("POST %s with a full lane = %d, want 503 (%s)", path, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Errorf("POST %s Retry-After = %q, want 1", path, got)
		}
	}
}

// Malformed JSON is a 400 on every admitting POST route.
func TestAdmissionMalformedJSON(t *testing.T) {
	s := twoBackendService(t, Config{})
	sess, err := s.OpenSession(Request{Program: bellProgram("open"), Backend: "perfect", Shots: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/submit", "/sessions", "/sessions/" + sess.ID + "/bind"} {
		if rec := post(s, path, `{"name":`); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s with malformed JSON = %d, want 400", path, rec.Code)
		}
	}
}

// A bind job's view reports the session's device and calibration
// overrides exactly as the equivalent submitted job's view does.
func TestBindViewReportsSessionOverrides(t *testing.T) {
	s := twoBackendService(t, Config{Seed: 9})
	dev, err := target.Parse([]byte(labDeviceJSON))
	if err != nil {
		t.Fatal(err)
	}
	cal := target.Semiconducting().Calibration
	cal.SetEdgeError(0, 1, 0.05)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, req := range []Request{
		{Program: bellProgram("targeted"), Backend: "perfect", Target: dev, Shots: 8},
		{Program: bellProgram("recalibrated"), Backend: "semiconducting", Calibration: cal, Shots: 8},
	} {
		want := viewJob(awaitJob(t, s, req))
		if want.Device == "" && !want.Recalibrated {
			t.Fatalf("%s: submitted job reports no override: %+v", req.Program.Name, want)
		}
		sess, err := s.OpenSession(req)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.BindSession(sess.ID, BindRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		got := viewJob(j)
		if got.Device != want.Device || got.Recalibrated != want.Recalibrated {
			t.Errorf("%s: bind view device=%q recalibrated=%v, submit view device=%q recalibrated=%v",
				req.Program.Name, got.Device, got.Recalibrated, want.Device, want.Recalibrated)
		}
	}
}
