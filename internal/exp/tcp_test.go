package exp

// TCP transport tests: byte-identity of the quick catalog over remote
// workers, handshake refusals over a socket, teardown bounds on both
// transports, late-join admission, and recovery from a worker killed
// mid-batch. The fault-injection proxy lives in faultconn_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startListenWorkerProc spawns the test binary as a TCP worker acceptor
// (helper mode "listen", the subprocess shape of `experiments worker
// -listen`) and returns its address. Each call is a separate process with
// its own instance cache, which is what per-worker stats assertions need.
func startListenWorkerProc(t *testing.T, env ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerModeEnv+"=listen")
	cmd.Env = append(cmd.Env, env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("listen worker never announced its address: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if !ok {
		t.Fatalf("unexpected listen worker banner %q", line)
	}
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	return addr
}

// startInprocWorker serves the worker protocol from this test process on a
// loopback listener. Handy when the test needs to shape the worker side
// directly; note it shares the orchestrator's registry AND instance cache,
// so per-worker cache assertions need startListenWorkerProc instead.
func startInprocWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeWorker(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return l.Addr().String()
}

// totalTasks derives every plan and sums the task counts.
func totalTasks(t *testing.T, exps []*Experiment, cfg RunConfig) int {
	t.Helper()
	total := 0
	for _, e := range exps {
		p, err := e.plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total += len(p.Tasks)
	}
	return total
}

// TestTCPBatchMatchesSerialByteForByte is the transport-swap acceptance
// criterion: the full quick catalog over TCP workers on loopback is
// byte-identical to the serial in-process run AND to the pipe-subprocess
// run at every worker count, with every worker reporting a stats frame
// (satellite: per-worker stats and -cache-stats assembly ride on OnStats).
func TestTCPBatchMatchesSerialByteForByte(t *testing.T) {
	exps := lookupAll(t, batchNames)
	cfg := RunConfig{Preset: PresetQuick}
	serial, err := RunBatch(context.Background(), exps, BatchOptions{Jobs: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSON(t, serial)
	pipes, err := procBatch(context.Background(), exps, 2, BatchOptions{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if raw := canonicalJSON(t, pipes); !bytes.Equal(want, raw) {
		t.Fatalf("pipe workers diverged from serial:\n%s\nvs\n%s", want, raw)
	}
	tasks := totalTasks(t, exps, cfg)
	for _, workers := range []int{1, 2, 4} {
		addrs := make([]string, workers)
		for i := range addrs {
			addrs[i] = startListenWorkerProc(t)
		}
		var (
			mu    sync.Mutex
			stats []WorkerStats
		)
		got, err := RunBatch(context.Background(), exps, BatchOptions{
			Remote: addrs,
			Config: cfg,
			OnWorkerStats: func(ws WorkerStats) {
				mu.Lock()
				stats = append(stats, ws)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("tcp workers=%d: %v", workers, err)
		}
		if raw := canonicalJSON(t, got); !bytes.Equal(want, raw) {
			t.Fatalf("tcp workers=%d diverged from serial:\n%s\nvs\n%s", workers, want, raw)
		}
		if len(stats) != workers {
			t.Fatalf("tcp workers=%d: stats from %d workers, want %d: %+v", workers, len(stats), workers, stats)
		}
		ranTasks := 0
		addrSet := map[string]bool{}
		for _, a := range addrs {
			addrSet[a] = true
		}
		for _, ws := range stats {
			if !addrSet[ws.Addr] {
				t.Fatalf("tcp workers=%d: stats carry unknown addr %q (want one of %v)", workers, ws.Addr, addrs)
			}
			ranTasks += ws.Tasks
		}
		if ranTasks != tasks {
			t.Fatalf("tcp workers=%d: workers ran %d tasks, want %d", workers, ranTasks, tasks)
		}
	}
}

// fakeHelloListener accepts connections, answers each with a tweaked hello
// frame, then discards input until the orchestrator closes the connection.
// It returns the address, an accept counter, and a channel closed when the
// first connection has been torn down by the peer.
func fakeHelloListener(t *testing.T, tweak func(*HelloFrame)) (string, *atomic.Int32, chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	accepts := new(atomic.Int32)
	closed := make(chan struct{})
	var closeOnce sync.Once
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				h := HelloFrame{
					Type:        FrameHello,
					Proto:       ProtoVersion,
					Catalog:     CatalogHash(),
					Build:       BuildID(),
					Experiments: len(List()),
				}
				tweak(&h)
				raw, _ := json.Marshal(h)
				_, _ = conn.Write(append(raw, '\n'))
				// Reads return only when the orchestrator closes the
				// connection — which a handshake refusal must do.
				_, _ = io.Copy(io.Discard, conn)
				closeOnce.Do(func() { close(closed) })
			}(conn)
		}
	}()
	return l.Addr().String(), accepts, closed
}

// TestTCPHandshakeRefusals mirrors TestProcRetryNeverAppliesToHandshake
// over a socket: a remote worker announcing a skewed catalog hash, build
// fingerprint, or protocol version is refused with a labeled permanent
// error, the connection is closed, and WorkerRetry never buys a second
// dial.
func TestTCPHandshakeRefusals(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*HelloFrame)
		want  string
	}{
		{"catalog", func(h *HelloFrame) { h.Catalog = "sha256:0000" }, "catalog hash mismatch"},
		{"build", func(h *HelloFrame) { h.Build = "repro@v0.0.0-stale" }, "build mismatch"},
		{"proto", func(h *HelloFrame) { h.Proto = ProtoVersion + 1 }, "protocol version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepts, closed := fakeHelloListener(t, tc.tweak)
			exps := lookupAll(t, []string{"twocoloring-gap"})
			started := time.Now()
			_, err := RunBatch(context.Background(), exps, BatchOptions{
				Remote:      []string{addr},
				WorkerRetry: true, // must not buy the refusal a second dial
				Config:      RunConfig{Preset: PresetQuick},
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want the %s refusal", err, tc.name)
			}
			if !strings.Contains(err.Error(), "worker "+addr) {
				t.Fatalf("err = %v, want it labeled with the remote address", err)
			}
			if !isPermanent(err) {
				t.Fatalf("handshake refusal lost its permanent marker: %v", err)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("orchestrator never closed the refused connection")
			}
			if n := accepts.Load(); n != 1 {
				t.Fatalf("refused worker was dialed %d times, want exactly 1", n)
			}
			if time.Since(started) > 5*time.Second {
				t.Fatal("refusal took too long (backoff applied to a permanent failure?)")
			}
		})
	}
}

// TestTCPMalformedResultRowFailsLabeled: a remote worker that completes
// the handshake and then answers every task with an empty row — a frame
// that decodes cleanly — fails the batch with a labeled assemble error
// instead of panicking the orchestrator's session goroutine.
func TestTCPMalformedResultRowFailsLabeled(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				enc := json.NewEncoder(conn)
				_ = enc.Encode(HelloFrame{Type: FrameHello, Proto: ProtoVersion, Catalog: CatalogHash(),
					Build: BuildID(), Experiments: len(List())})
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					var tf TaskFrame
					if json.Unmarshal(sc.Bytes(), &tf) != nil || tf.Type != FrameTask {
						return
					}
					_ = enc.Encode(ResultFrame{Type: FrameResult, ID: tf.ID,
						Output: json.RawMessage(`{"x":1,"y":1,"row":[]}`)})
				}
			}(conn)
		}
	}()
	exps := lookupAll(t, []string{"ensemble-gw-linial"})
	_, err = RunBatch(context.Background(), exps, BatchOptions{
		Remote: []string{l.Addr().String()},
		Config: RunConfig{Preset: PresetQuick},
	})
	if err == nil || !strings.Contains(err.Error(), "ensemble-gw-linial: assemble") ||
		!strings.Contains(err.Error(), "sample=1: row has 0 cells, header has 5") {
		t.Fatalf("err = %v, want the labeled malformed-row assemble error", err)
	}
}

// TestTCPCleanCloseWithoutStats is the satellite regression: a remote
// worker that completes every task and closes the connection cleanly — but
// never sends its stats frame — fails the batch with the labeled
// closed-connection error, and WorkerRetry does not resurrect it (every
// task is already delivered; a fresh session could not re-earn the stats).
func TestTCPCleanCloseWithoutStats(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var accepts atomic.Int32
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				// A faithful worker whose stats frame is swallowed: the
				// session ends with a clean FIN and no stats.
				_ = RunWorker(context.Background(), conn, dropStatsWriter{w: conn})
			}(conn)
		}
	}()
	exps := lookupAll(t, []string{"test-proc-noop"})
	_, err = RunBatch(context.Background(), exps, BatchOptions{
		Remote:      []string{l.Addr().String()},
		WorkerRetry: true,
		Config:      RunConfig{Preset: PresetQuick},
	})
	if err == nil || !strings.Contains(err.Error(), "closed connection without a stats frame") {
		t.Fatalf("err = %v, want the closed-connection-without-stats label", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("worker dialed %d times, want 1 (shutdown violations are never retried)", n)
	}
}

// TestTCPStatsStallBounded: a remote worker that finishes its tasks but
// then goes silent with the connection open is aborted by the teardown
// watchdog — the same deadline that bounds pipe-worker reaping — and the
// batch fails labeled instead of hanging.
func TestTCPStatsStallBounded(t *testing.T) {
	saved := teardownTimeout
	teardownTimeout = 300 * time.Millisecond
	defer func() { teardownTimeout = saved }()

	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				_ = RunWorker(context.Background(), conn, blockOnStatsWriter{w: conn, block: unblock})
			}(conn)
		}
	}()
	exps := lookupAll(t, []string{"test-proc-noop"})
	started := time.Now()
	_, err = RunBatch(context.Background(), exps, BatchOptions{
		Remote: []string{l.Addr().String()},
		Config: RunConfig{Preset: PresetQuick},
	})
	if err == nil || !strings.Contains(err.Error(), "no stats frame within") {
		t.Fatalf("err = %v, want the stats-watchdog label", err)
	}
	if time.Since(started) > 5*time.Second {
		t.Fatal("stalled shutdown was not bounded by the teardown deadline")
	}
}

// blockOnStatsWriter forwards every frame except the stats frame, on which
// it blocks until the test releases it — a worker silent at shutdown.
type blockOnStatsWriter struct {
	w     io.Writer
	block chan struct{}
}

func (b blockOnStatsWriter) Write(p []byte) (int, error) {
	if isStatsFrame(p) {
		<-b.block
		return 0, fmt.Errorf("session torn down")
	}
	return b.w.Write(p)
}

// TestProcCleanExitWithoutStats is the pipe-transport face of the same
// regression: a worker subprocess that completes its tasks and exits
// cleanly without the stats frame fails the batch labeled, identically to
// the TCP clean-close case.
func TestProcCleanExitWithoutStats(t *testing.T) {
	exps := lookupAll(t, []string{"test-proc-noop"})
	_, err := RunBatch(context.Background(), exps, BatchOptions{
		Workers:       1,
		WorkerCommand: workerCommand(),
		WorkerEnv:     workerEnv("nostats"),
		WorkerRetry:   true,
		Config:        RunConfig{Preset: PresetQuick},
	})
	if err == nil || !strings.Contains(err.Error(), "exited cleanly without a stats frame") {
		t.Fatalf("err = %v, want the clean-exit-without-stats label", err)
	}
}

// TestProcStatsStallBounded: the pipe-transport worker that neither writes
// stats nor exits is killed by the same teardown watchdog within the same
// deadline (the uniform-teardown satellite, subprocess side).
func TestProcStatsStallBounded(t *testing.T) {
	saved := teardownTimeout
	teardownTimeout = 300 * time.Millisecond
	defer func() { teardownTimeout = saved }()
	exps := lookupAll(t, []string{"test-proc-noop"})
	started := time.Now()
	_, err := RunBatch(context.Background(), exps, BatchOptions{
		Workers:       1,
		WorkerCommand: workerCommand(),
		WorkerEnv:     workerEnv("stallstats"),
		Config:        RunConfig{Preset: PresetQuick},
	})
	if err == nil || !strings.Contains(err.Error(), "no stats frame within") {
		t.Fatalf("err = %v, want the stats-watchdog label", err)
	}
	if time.Since(started) > 5*time.Second {
		t.Fatal("stalled worker was not bounded by the teardown deadline")
	}
}

// The gate experiment for the late-join test: tasks block until the test
// releases them, so the batch provably spans the second worker's arrival.
// Only meaningful with in-process TCP workers (the channels are
// process-local).
var (
	tcpGateStarted = make(chan struct{}, 64)
	tcpGateRelease = make(chan struct{})
)

func init() {
	MustRegister(&Experiment{
		Name:        "test-tcp-gate",
		Description: "tasks block until released (late-join TCP test)",
		Run: func(ctx context.Context, cfg RunConfig) (*Result, error) {
			return nil, fmt.Errorf("test-tcp-gate runs only via its plan")
		},
		Plan: func(cfg RunConfig) (*TaskPlan, error) {
			tasks := make([]Task, 4)
			for i := range tasks {
				i := i
				tasks[i] = Task{
					Label: fmt.Sprintf("test-tcp-gate i=%d", i),
					Run: func(ctx context.Context) (any, error) {
						tcpGateStarted <- struct{}{}
						select {
						case <-tcpGateRelease:
							return float64(i), nil
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					},
				}
			}
			return &TaskPlan{
				Tasks: tasks,
				Assemble: func(outs []any) (*Result, error) {
					return &Result{Name: "test-tcp-gate"}, nil
				},
				Encode: func(out any) (json.RawMessage, error) { return json.Marshal(out) },
				Decode: func(raw json.RawMessage) (any, error) {
					var v float64
					if err := json.Unmarshal(raw, &v); err != nil {
						return nil, err
					}
					return v, nil
				},
			}, nil
		},
	})
}

// TestTCPLateJoiningWorkerAdmitted: a remote address that is unreachable at
// batch start is re-dialed on backoff and — once a worker appears there
// mid-batch — admitted into the group pool and handed queued work, while
// the batch keeps running on the workers that were up.
func TestTCPLateJoiningWorkerAdmitted(t *testing.T) {
	savedMin, savedMax := dialBackoffMin, dialBackoffMax
	dialBackoffMin, dialBackoffMax = 10*time.Millisecond, 50*time.Millisecond
	defer func() { dialBackoffMin, dialBackoffMax = savedMin, savedMax }()
	// Fresh gate channels: a prior run of this test (-count>1) closed the
	// release channel for good.
	tcpGateStarted = make(chan struct{}, 64)
	tcpGateRelease = make(chan struct{})

	early := startInprocWorker(t)
	// Reserve an address for the late worker, then free it: the batch
	// dials it while nothing is listening.
	res, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := res.Addr().String()
	_ = res.Close()

	exps := lookupAll(t, []string{"test-tcp-gate"})
	var (
		mu    sync.Mutex
		stats []WorkerStats
	)
	type outcome struct {
		results []*Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := RunBatch(context.Background(), exps, BatchOptions{
			Remote: []string{early, lateAddr},
			Config: RunConfig{Preset: PresetQuick},
			OnWorkerStats: func(ws WorkerStats) {
				mu.Lock()
				stats = append(stats, ws)
				mu.Unlock()
			},
		})
		done <- outcome{results, err}
	}()

	// The early worker holds its first gate task open; the late address is
	// still dark.
	select {
	case <-tcpGateStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("no task ever started on the early worker")
	}
	// Bring the late worker up; a slot is backing off on its address and
	// admits it. One worker session runs one task at a time, so a second
	// in-flight gate task proves the late worker claimed from the pool.
	l, err := net.Listen("tcp", lateAddr)
	if err != nil {
		t.Fatalf("could not bind the reserved late address: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ServeWorker(ctx, l)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	select {
	case <-tcpGateStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("late-joining worker never received a task")
	}
	close(tcpGateRelease)

	out := <-done
	if out.err != nil {
		t.Fatalf("batch with a late-joining worker failed: %v", out.err)
	}
	if len(out.results) != 1 || out.results[0].Name != "test-tcp-gate" {
		t.Fatalf("results = %+v", out.results)
	}
	if len(stats) != 2 {
		t.Fatalf("stats from %d workers, want both the early and the late one: %+v", len(stats), stats)
	}
	ranTasks := 0
	byAddr := map[string]int{}
	for _, ws := range stats {
		ranTasks += ws.Tasks
		byAddr[ws.Addr] = ws.Tasks
	}
	if ranTasks != 4 {
		t.Fatalf("workers ran %d tasks, want 4: %+v", ranTasks, stats)
	}
	if byAddr[lateAddr] == 0 {
		t.Fatalf("late worker %s ran no tasks: %+v", lateAddr, stats)
	}
}

// TestTCPWorkerKilledMidBatchRecoversViaRetry: with WorkerRetry, a remote
// worker process dying mid-task (the task kills its acceptor) drops the
// connection; the interrupted group is requeued and completes on the
// surviving worker, and the dead address's slot retires silently once the
// pool drains. Without WorkerRetry the crash fails the batch labeled.
func TestTCPWorkerKilledMidBatchRecoversViaRetry(t *testing.T) {
	savedMin, savedMax := dialBackoffMin, dialBackoffMax
	dialBackoffMin, dialBackoffMax = 10*time.Millisecond, 50*time.Millisecond
	defer func() { dialBackoffMin, dialBackoffMax = savedMin, savedMax }()

	marker := filepath.Join(t.TempDir(), "flaky")
	env := "REPRO_EXP_FLAKY_FILE=" + marker
	a := startListenWorkerProc(t, env)
	b := startListenWorkerProc(t, env)
	exps := lookupAll(t, []string{"test-proc-flaky"})

	results, err := RunBatch(context.Background(), exps, BatchOptions{
		Remote:      []string{a, b},
		WorkerRetry: true,
	})
	if err != nil {
		t.Fatalf("retry did not recover the killed remote worker: %v", err)
	}
	if len(results) != 1 || results[0].Name != "test-proc-flaky" {
		t.Fatalf("results = %+v", results)
	}

	// Without retry: fresh marker, fresh workers, same crash — labeled.
	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}
	c := startListenWorkerProc(t, env)
	_, err = RunBatch(context.Background(), exps, BatchOptions{
		Remote: []string{c},
	})
	if err == nil || !strings.Contains(err.Error(), `task "test-proc-flaky"`) {
		t.Fatalf("without retry, err = %v, want a labeled crash", err)
	}
	if !strings.Contains(err.Error(), "worker "+c) {
		t.Fatalf("err = %v, want it labeled with the remote address", err)
	}
}
