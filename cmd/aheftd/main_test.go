package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"aheft/internal/buildinfo"
	"aheft/internal/replay"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

func TestVersionAndBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 || strings.TrimSpace(stdout.String()) != buildinfo.String() {
		t.Fatalf("-version: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("bad flag: exit %d, stderr %q", code, stderr.String())
	}
}

// freeAddr picks a free loopback address by bind-and-close.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestDebugAddrServesPprofApartFromAPI runs the daemon with -debug-addr:
// the profiler and the runtime metrics answer on their own listener, the
// API listener has no such routes, and SIGTERM drains to exit 0.
func TestDebugAddrServesPprofApartFromAPI(t *testing.T) {
	api, debug := freeAddr(t), freeAddr(t)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", api, "-debug-addr", debug, "-shards", "1"}, io.Discard, io.Discard)
	}()
	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for deadline := time.Now().Add(10 * time.Second); get("http://"+api+"/v1/healthz") != http.StatusOK || get("http://"+debug+"/debug/pprof/") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("daemon not serving after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/metrics"} {
		if code := get("http://" + debug + path); code != http.StatusOK {
			t.Errorf("debug listener: %s answered %d", path, code)
		}
		if code := get("http://" + api + path); code != http.StatusNotFound {
			t.Errorf("API listener: %s answered %d, want 404", path, code)
		}
	}
	resp, err := http.Get("http://" + debug + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !regexp.MustCompile(`(?m)^/gc/heap/allocs:bytes \d+$`).Match(body) {
		t.Errorf("/debug/metrics has no /gc/heap/allocs:bytes line:\n%s", body)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit code %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain on SIGTERM")
	}
}

// TestRecordDirReplaysIdentical runs the daemon with -record-dir, serves
// one submission to completion and drains on SIGTERM; the recording it
// leaves must replay identically. This is the binary's half of the replay
// gate (the recorder and replay themselves are internal/replay's tests).
func TestRecordDirReplaysIdentical(t *testing.T) {
	api, dir := freeAddr(t), t.TempDir()
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", api, "-shards", "2", "-record-dir", dir}, io.Discard, io.Discard)
	}()
	base := "http://" + api
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := http.Get(base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon not serving after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sc := workload.SampleScenario()
	body, err := wire.EncodeSubmission(&wire.Submission{Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool,
		Options: wire.Options{TieWindow: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/workflows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub wire.Submitted
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st wire.Status
		if resp, err := http.Get(base + "/v1/workflows/" + sub.ID); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workflow %s not done after 10s (state %q)", sub.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit code %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain on SIGTERM")
	}
	res, err := replay.Run(dir, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() || res.Shards != 2 || res.Outputs == 0 {
		t.Fatalf("replay of the daemon's recording: %d shards, %d outputs, divergences:\n%s",
			res.Shards, res.Outputs, strings.Join(res.Divergences, "\n"))
	}
}

// TestDataDirKeepsItsShardCount runs the daemon on a fresh data directory
// with -shards 2 and drains it; a second start on that directory with
// -shards 1 must exit non-zero before it listens, naming both counts, as
// the flag's help says it will.
func TestDataDirKeepsItsShardCount(t *testing.T) {
	api, dir := freeAddr(t), t.TempDir()
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", api, "-shards", "2", "-data-dir", dir, "-wal-sync", "off"}, io.Discard, io.Discard)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := http.Get("http://" + api + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon not serving after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit code %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain on SIGTERM")
	}

	var stderr bytes.Buffer
	code := run([]string{"-addr", api, "-shards", "1", "-data-dir", dir}, io.Discard, &stderr)
	msg := stderr.String()
	if code == 0 || !strings.Contains(msg, "holds 2 shards") || !strings.Contains(msg, "-shards is 1") || strings.Contains(msg, "listening") {
		t.Fatalf("restart under -shards 1: exit %d, stderr %q; want a refusal naming 2 and 1 before listening", code, msg)
	}
	var help bytes.Buffer
	run([]string{"-h"}, io.Discard, &help)
	if !strings.Contains(help.String(), "fixed by the data directory's first start") {
		t.Fatalf("-shards help does not say a data directory fixes the count:\n%s", help.String())
	}
}
