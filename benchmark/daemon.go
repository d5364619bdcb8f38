package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or writes besides its
// trace files: binaries, daemon data directories, daemon logs. It is
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// maxClients caps the closed-loop client count (and load connections).
const maxClients = 4

// cleanups runs on every exit path — normal return, failure, interrupt —
// so no daemon and no temp directory outlives the benchmark.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDaemon compiles cmd/aheftd from the checkout into buildDir. After
// the first call it is an up-to-date check, which is what setup_s's
// median sees.
func buildDaemon() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "aheftd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aheftd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aheftd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort picks a free loopback port by bind-and-close: aheftd logs the
// -addr flag, not the resolved address, so ":0" would leave the port
// unknown.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

var runSeq atomic.Int64

// newRunDir creates a fresh scratch directory under buildDir, removed at
// exit.
func newRunDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(buildDir, "tmp", fmt.Sprintf("run-%d-%d", os.Getpid(), runSeq.Add(1))))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// daemon is one spawned aheftd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	started time.Time
	waited  chan struct{}
	waitErr error
	killed  bool    // kill was called: the exit status means nothing
	ctl     *client // control connection: healthz, /metrics
}

// startDaemon execs aheftd on a free loopback port with default flags plus
// extra. Its output goes to a log file in dir.
func startDaemon(bin, dir string, extra []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(dir, fmt.Sprintf("aheftd-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, waited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	onExit(d.kill)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()
	d.ctl = newClient(d.base)
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls /v1/healthz back to back until it answers 200 "ready"
// (a recovering daemon answers 503 from its gate) and returns the time
// since exec.
func (d *daemon) waitReady(timeout time.Duration) (time.Duration, error) {
	deadline := d.started.Add(timeout)
	for {
		select {
		case <-d.waited:
			return 0, fmt.Errorf("aheftd exited before ready: %v\n%s", d.waitErr, d.logTail())
		default:
		}
		code, body, err := d.ctl.do("GET", "/v1/healthz", nil)
		if err == nil && code == 200 {
			var h struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(body, &h) == nil && h.Status == "ready" {
				return time.Since(d.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("aheftd not ready after %s (last: code %d, err %v)\n%s", timeout, code, err, d.logTail())
		}
		// Not up yet (connection refused) or still replaying (503 from the
		// gate): a short pause keeps the poll from taking a core, and
		// daemon CPU, that the recovery needs.
		time.Sleep(500 * time.Microsecond)
	}
}

// metricsDoc is the part of the daemon's public /metrics document the
// benchmark reads. Field names are the wire names, which the daemon
// keeps stable.
type metricsDoc struct {
	Completed     uint64            `json:"completed"`
	Failed        uint64            `json:"failed"`
	Decisions     uint64            `json:"decisions"`
	Reports       uint64            `json:"reports"`
	Delta         uint64            `json:"reschedules_delta"`
	FullFallback  uint64            `json:"reschedules_full_fallback"`
	EventsEmitted uint64            `json:"events_emitted"`
	EventsDropped uint64            `json:"events_dropped"`
	WALAppends    uint64            `json:"wal_appends"`
	WALBytes      uint64            `json:"wal_bytes"`
	WALErrors     uint64            `json:"wal_errors"`
	Recovered     uint64            `json:"recovered_workflows"`
	RecoveryMs    float64           `json:"recovery_ms"`
	FallbackBy    map[string]uint64 `json:"reschedules_full_fallback_by_reason"`
	Admission     struct {
		WaitMs struct {
			P50 float64 `json:"p50"`
		} `json:"wait_ms"`
	} `json:"admission"`
}

func (d *daemon) metrics() (*metricsDoc, error) { return scrapeMetrics(d.ctl) }

func scrapeMetrics(c *client) (*metricsDoc, error) {
	code, body, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if code != 200 {
		return nil, fmt.Errorf("scrape /metrics: HTTP %d", code)
	}
	var m metricsDoc
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return &m, nil
}

// terminate sends SIGTERM and requires a clean drain: exit code 0. A
// daemon the benchmark already killed on purpose (crash_recovery) has
// nothing left to drain.
func (d *daemon) terminate(timeout time.Duration) error {
	if d.killed {
		return nil
	}
	d.ctl.close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.waited:
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("aheftd did not drain within %s of SIGTERM\n%s", timeout, d.logTail())
	}
	if d.waitErr != nil {
		return fmt.Errorf("aheftd exited uncleanly on SIGTERM: %v\n%s", d.waitErr, d.logTail())
	}
	return nil
}

// kill SIGKILLs the daemon and reaps it. Safe to call more than once.
func (d *daemon) kill() {
	d.killed = true
	d.ctl.close()
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.waited
}

func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return "--- aheftd log tail ---\n" + string(data)
}
