package main

import (
	"bytes"
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
