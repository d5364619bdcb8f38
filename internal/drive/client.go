package drive

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"aheft/internal/grid"
	"aheft/internal/wire"
)

// Client is the one aheftd HTTP client: Run and cmd/chaos talk to the
// daemon through it. The zero HTTP field means a shared
// 2-minute-timeout default.
type Client struct {
	// Base is the daemon's address ("http://127.0.0.1:7070").
	Base string
	// HTTP is the transport; nil means a 2-minute-timeout default.
	HTTP *http.Client
}

var defaultHTTP = &http.Client{Timeout: 2 * time.Minute}

// HTTPError is a non-2xx daemon answer: the status code, the daemon's
// {"error": …} text, and the Retry-After it advised (0 when absent).
type HTTPError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("HTTP %d", e.Code)
	}
	return fmt.Sprintf("HTTP %d: %s", e.Code, e.Msg)
}

// httpCode returns err's HTTP status, or 0 when the daemon never answered.
func httpCode(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Code
	}
	return 0
}

// do issues one request and decodes a 2xx body into v (nil discards it).
func (c *Client) do(ctx context.Context, method, path string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultHTTP
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var doc struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&doc)
		he := &HTTPError{Code: resp.StatusCode, Msg: doc.Error}
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			he.RetryAfter = time.Duration(s) * time.Second
		}
		return he
	}
	if v == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// sleep waits d, or returns ctx's error if that comes first.
func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// GetJSON decodes the 200 answer of GET path into v.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	if err := c.do(ctx, http.MethodGet, path, nil, v); err != nil {
		return fmt.Errorf("drive: GET %s: %w", path, err)
	}
	return nil
}

// Submit posts one encoded submission and returns the workflow ID. It is
// the closed loop's retry, for load arrivals and flooders alike:
// a 429 is retried until admitted or ctx ends, after an eighth of the
// advised Retry-After (20 ms without one, at most 250 ms — the daemon
// names whole seconds, and a tighter retry keeps the loop saturated and a
// flood a flood; a saturated daemon rejects before it reads the body), and
// retries counts those 429s. A transport fault (connection resets under
// thousands of concurrent loopback conns) is part of load generation, not
// a rejection: it is retried three times before giving up.
func (c *Client) Submit(ctx context.Context, body []byte) (id string, retries int, err error) {
	netErrs := 0
	for {
		var sub wire.Submitted
		err := c.do(ctx, http.MethodPost, "/v1/workflows", body, &sub)
		var he *HTTPError
		var ue *url.Error
		delay := 50 * time.Millisecond
		switch {
		case err == nil:
			return sub.ID, retries, nil
		case errors.As(err, &he) && he.Code == http.StatusTooManyRequests:
			retries++
			delay = 20 * time.Millisecond
			if he.RetryAfter > 0 {
				delay = min(he.RetryAfter/8, 250*time.Millisecond)
			}
		case errors.As(err, &ue) && ctx.Err() == nil && netErrs < 3:
			netErrs++
		default:
			return "", retries, fmt.Errorf("drive: submit: %w", err)
		}
		if err := sleep(ctx, delay); err != nil {
			return "", retries, fmt.Errorf("drive: submit: %w", err)
		}
	}
}

// Plan fetches the workflow's current plan, polling through the 409 the
// daemon answers while the submission is queued but not yet planned.
func (c *Client) Plan(ctx context.Context, id string) (*wire.Plan, error) {
	for {
		var plan wire.Plan
		err := c.do(ctx, http.MethodGet, "/v1/workflows/"+id+"/plan", nil, &plan)
		switch {
		case err == nil:
			return &plan, nil
		case httpCode(err) != http.StatusConflict:
			return nil, fmt.Errorf("drive: fetch plan %s: %w", id, err)
		}
		if err := sleep(ctx, 5*time.Millisecond); err != nil {
			return nil, fmt.Errorf("drive: fetch plan %s: %w", id, err)
		}
	}
}

// Report posts one time-ordered batch of run-time events.
func (c *Client) Report(ctx context.Context, id string, events []wire.ReportEvent) (*wire.ReportAck, error) {
	body, err := wire.EncodeReport(&wire.Report{Events: events})
	if err != nil {
		return nil, fmt.Errorf("drive: encode report: %w", err)
	}
	var ack wire.ReportAck
	if err := c.do(ctx, http.MethodPost, "/v1/workflows/"+id+"/report", body, &ack); err != nil {
		return nil, fmt.Errorf("drive: report %s: %w", id, err)
	}
	return &ack, nil
}

// Status fetches the workflow's status document.
func (c *Client) Status(ctx context.Context, id string) (*wire.Status, error) {
	var st wire.Status
	if err := c.do(ctx, http.MethodGet, "/v1/workflows/"+id, nil, &st); err != nil {
		return nil, fmt.Errorf("drive: status %s: %w", id, err)
	}
	return &st, nil
}

// Grid fetches a shared grid's status. Every call decodes into a fresh
// value: the drained gauges are omitempty on the wire, so decoding over an
// earlier snapshot would keep its stale non-zero counts.
func (c *Client) Grid(ctx context.Context, name string) (*wire.GridStatus, error) {
	var st wire.GridStatus
	if err := c.do(ctx, http.MethodGet, "/v1/grids/"+name, nil, &st); err != nil {
		return nil, fmt.Errorf("drive: grid status %s: %w", name, err)
	}
	return &st, nil
}

// EnsureGrid registers the shared grid, tolerating an identical
// pre-existing one (rounds on one daemon reuse the grid).
func (c *Client) EnsureGrid(ctx context.Context, name string, pool *grid.Pool) error {
	body, err := wire.EncodeGridSpec(&wire.GridSpec{Pool: pool})
	if err != nil {
		return fmt.Errorf("drive: encode grid spec: %w", err)
	}
	err = c.do(ctx, http.MethodPut, "/v1/grids/"+name, body, nil)
	switch {
	case err == nil:
		return nil
	case httpCode(err) != http.StatusConflict:
		return fmt.Errorf("drive: register grid %s: %w", name, err)
	}
	st, err := c.Grid(ctx, name)
	if err != nil {
		return fmt.Errorf("drive: grid %q exists but is unreadable: %w", name, err)
	}
	if st.Resources != pool.Size() {
		return fmt.Errorf("drive: grid %q has %d resources, want %d", name, st.Resources, pool.Size())
	}
	return nil
}

// WaitReady polls GET /v1/healthz until the daemon answers "ready" —
// through both the pre-listen connection-refused window and the 503 gate
// while recovery replays the WAL.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		var hz struct {
			Status string `json:"status"`
		}
		err := c.GetJSON(ctx, "/v1/healthz", &hz)
		if err == nil && hz.Status == "ready" {
			return nil
		}
		if sleep(ctx, 50*time.Millisecond) != nil {
			return fmt.Errorf("drive: daemon not ready after %s (status %q): %v", timeout, hz.Status, err)
		}
	}
}
