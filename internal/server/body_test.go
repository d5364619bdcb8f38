package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"aheft/internal/wire"
	"aheft/internal/workload"
)

// TestReadBody covers the one body reader behind the four routes that
// take a document: a body over Config.MaxBodyBytes answers 413 on each of
// them (only the submit route used to; the others said 400), a
// Content-Length the body does not honour answers 400, and a chunked
// body — no Content-Length to presize from — is read whole.
func TestReadBody(t *testing.T) {
	sc := workload.SampleScenario()
	live := encodeLive(t, sc, "aheft", "acme", wire.Options{})
	_, ts := newTestServer(t, Config{Shards: 1, MaxBodyBytes: int64(len(live)) + 64})
	var sub wire.Submitted
	if code, msg := postJSON(t, ts, "/v1/workflows", live, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s", code, msg)
	}
	plan := fetchPlan(t, ts, sub.ID)
	// Run the workflow out when done, or the drain waits for it.
	defer reportPlanExecution(t, ts, sub.ID, &plan)

	oversized := bytes.Repeat([]byte(" "), len(live)+65)
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/workflows"},
		{http.MethodPost, "/v1/workflows/" + sub.ID + "/report"},
		{http.MethodPost, "/v1/workflows/" + sub.ID + "/whatif"},
		{http.MethodPut, "/v1/grids/g1"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "read body") {
			t.Errorf("%s %s with an oversized body: HTTP %d %s", route.method, route.path, resp.StatusCode, msg)
		}
	}

	// Chunked: the reader's type hides its length from net/http.
	analytic := encodeScenario(t, sc, "aheft", wire.Options{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/workflows", struct{ io.Reader }{bytes.NewReader(analytic)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if req.ContentLength != 0 || resp.StatusCode != http.StatusAccepted {
		t.Errorf("chunked submission (Content-Length %d): HTTP %d", req.ContentLength, resp.StatusCode)
	}

	// A Content-Length within the limit, 10 bytes of body, then EOF.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/workflows HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(live), live[:10])
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short body under a longer Content-Length: HTTP %d", resp.StatusCode)
	}

}
