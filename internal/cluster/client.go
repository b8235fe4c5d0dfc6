package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
)

// errPermanent wraps failures no amount of retrying or re-routing fixes —
// the worker understood the request and rejected it (4xx), or the job ran
// and failed. Re-running the same spec elsewhere would fail identically
// (execution is deterministic), so the executor surfaces these instead of
// burning the failover chain on them.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// permanent reports whether err came from the permanent class.
func permanent(err error) bool {
	var p errPermanent
	return errors.As(err, &p)
}

// queueFullRetry paces resubmission against a worker's full run queue.
// Backpressure is flow control, not failure: the worker is alive and
// draining, so the client waits rather than triggering failover (which
// would break the one-home-per-point dedup for no capacity gain).
const queueFullRetry = 5 * time.Millisecond

// Client speaks the mobiserved HTTP API to one worker. The zero value is
// unusable; construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
	wait time.Duration // the ?wait= bound sent with each run request
}

// NewClient returns a client for the worker at addr (host:port, or a base
// URL with its scheme). The http.Client bounds each round trip; a blocking
// run request holds one open for at most simserve.MaxWait.
func NewClient(addr string, hc *http.Client) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: base, hc: hc, wait: simserve.MaxWait}
}

// Addr returns the worker's base URL.
func (c *Client) Addr() string { return c.base }

// Healthy probes the worker's liveness endpoint.
func (c *Client) Healthy() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s health %d", c.base, resp.StatusCode)
	}
	return nil
}

// RunPoint executes one canonical spec on the worker and returns the exact
// payload bytes the worker computed or cached, in one blocking
// POST /v1/run?wait= per wait bound. It absorbs queue-full backpressure
// (503) and waits that outlive their bound (202: the re-POST coalesces onto
// the worker's in-flight job or hits its cache). ctx (nil means none)
// abandons the point; the job runs on, and its result stays in the
// worker's cache for whoever asks next. The returned cached flag reports
// that the worker answered without running anything. Errors are permanent
// (errPermanent: a rejecting status, a failed or cancelled job, ctx
// cancellation) or transient (transport failures); the caller owns retry
// and failover policy.
func (c *Client) RunPoint(spec scenario.Spec, ctx context.Context) (payload []byte, cached bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, false, errPermanent{err}
	}
	url := c.base + "/v1/run?wait=" + strconv.FormatInt(c.wait.Milliseconds(), 10)
	waited := false // a 202 means the point ran for us, even if a re-POST then hits the cache
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, false, errPermanent{err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err == nil {
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		switch {
		case err != nil && ctx.Err() != nil:
			return nil, false, errPermanent{ctx.Err()}
		case err != nil:
			return nil, false, err
		case resp.StatusCode == http.StatusOK:
			return payload, !waited && resp.Header.Get(simserve.ResultCachedHeader) == "true", nil
		case resp.StatusCode == http.StatusAccepted:
			waited = true
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Queue full: wait for the worker to drain.
			time.Sleep(queueFullRetry)
		default:
			return nil, false, errPermanent{fmt.Errorf("cluster: worker %s rejected the point: %d %s", c.base, resp.StatusCode, bytes.TrimSpace(payload))}
		}
	}
}
