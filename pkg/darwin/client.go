package darwin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client speaks the versioned /v2 HTTP surface of a darwind server. It is
// safe for concurrent use.
type Client struct {
	base    string
	token   string
	hc      *http.Client
	timeout time.Duration
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying http.Client (timeouts, transport).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds every JSON round trip with a per-request deadline. A
// request that exceeds it fails with ErrUnavailable — retryable, so callers
// with a retry policy (the shard router) fail over instead of hanging on a
// wedged server. Export streams are exempt: a large export legitimately
// outlives any per-request deadline, and the http.Client's own Timeout still
// caps it.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient returns a client for the darwind server at baseURL. token may be
// empty when the server runs without authentication.
func NewClient(baseURL, token string, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		token: token,
		hc:    http.DefaultClient,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CreateOptions configures a server-side labeler.
type CreateOptions struct {
	// Dataset names the served corpus to label.
	Dataset string `json:"dataset"`
	// Mode is ModeSession (default: a fresh one-annotator workspace) or
	// ModeWorkspace.
	Mode string `json:"mode,omitempty"`
	// Workspace, in workspace mode, attaches to this existing workspace
	// instead of creating a new one. Session mode rejects it.
	Workspace string `json:"workspace,omitempty"`
	// Annotator is the annotator name to attach as (required in workspace
	// mode; SoloAnnotator when empty in session mode).
	Annotator string `json:"annotator,omitempty"`
	// SeedRules and SeedPositiveIDs seed the positive set.
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	// Budget and Seed override the server defaults (0 keeps them).
	Budget int   `json:"budget,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// CreateLabeler creates a labeler on the server and returns its full status
// (ID set). Most callers want NewLabeler, which wraps the status in a
// RemoteLabeler handle; a sharding router uses the status form directly to
// re-expose the created labeler under its own namespace.
func (c *Client) CreateLabeler(ctx context.Context, opts CreateOptions) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/v2/labelers", opts, &st)
	return st, err
}

// NewLabeler creates a labeler on the server and returns its remote handle.
func (c *Client) NewLabeler(ctx context.Context, opts CreateOptions) (*RemoteLabeler, error) {
	st, err := c.CreateLabeler(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &RemoteLabeler{c: c, id: st.ID}, nil
}

// OpenLabeler returns a handle to an existing server-side labeler without a
// round trip; the first call reports ErrNotFound if it does not exist.
func (c *Client) OpenLabeler(id string) *RemoteLabeler {
	return &RemoteLabeler{c: c, id: id}
}

// LabelerPage is one page of the labeler listing.
type LabelerPage struct {
	Labelers []Status `json:"labelers"`
	// NextCursor pages through the listing; empty on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ListLabelers returns one page of live labelers, starting after cursor
// (empty for the first page). limit <= 0 uses the server default.
func (c *Client) ListLabelers(ctx context.Context, cursor string, limit int) (LabelerPage, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v2/labelers"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page LabelerPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// DatasetPage is one page of the dataset listing.
type DatasetPage struct {
	Datasets   []string `json:"datasets"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// ListDatasets returns one page of the datasets the server labels.
func (c *Client) ListDatasets(ctx context.Context, cursor string, limit int) (DatasetPage, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v2/datasets"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page DatasetPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// do runs one JSON round trip; non-2xx responses decode the /v2 error
// envelope into a typed error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("%w: encode request: %v", ErrInvalid, err)
		}
		body = bytes.NewReader(buf)
	}
	resp, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: decode %s %s response: %v", ErrInternal, method, path, err)
	}
	return nil
}

// roundTrip issues the request and normalizes transport and protocol errors
// into the typed taxonomy. The caller owns the returned body.
func (c *Client) roundTrip(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	return c.roundTripCT(ctx, method, path, body, "application/json")
}

// roundTripCT is roundTrip with an explicit request content type (the ingest
// endpoint ships JSONL, not a JSON document).
func (c *Client) roundTripCT(ctx context.Context, method, path string, body io.Reader, contentType string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		// Propagate the caller's request id so one id traces the whole
		// router → shard path in both daemons' logs.
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Code != "" {
		return nil, env.Err()
	}
	// Not a /v2 envelope (proxy, load balancer, ...): classify by status.
	sentinel := ErrInternal
	switch resp.StatusCode {
	case http.StatusBadRequest:
		sentinel = ErrInvalid
	case http.StatusUnauthorized, http.StatusForbidden:
		sentinel = ErrUnauthorized
	case http.StatusNotFound:
		sentinel = ErrNotFound
	case http.StatusConflict:
		sentinel = ErrConflict
	case http.StatusTooManyRequests:
		sentinel = ErrRateLimited
	case http.StatusServiceUnavailable:
		sentinel = ErrUnavailable
	}
	return nil, fmt.Errorf("%w: %s %s: HTTP %d: %s", sentinel, method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
}

// RemoteLabeler drives one server-side labeler over the /v2 surface. It
// implements Labeler, BatchAnswerer and Statuser.
type RemoteLabeler struct {
	c  *Client
	id string
}

// ID returns the server-side labeler ID (use Client.OpenLabeler to resume
// it from another process).
func (r *RemoteLabeler) ID() string { return r.id }

func (r *RemoteLabeler) path(suffix string) string {
	return "/v2/labelers/" + url.PathEscape(r.id) + suffix
}

// Suggest implements Labeler.
func (r *RemoteLabeler) Suggest(ctx context.Context) (Suggestion, error) {
	var sug Suggestion
	err := r.c.do(ctx, http.MethodGet, r.path("/suggestion"), nil, &sug)
	return sug, err
}

// answersRequest and answersResponse are the /v2 batch-answer wire shapes.
type answersRequest struct {
	Answers []Answer `json:"answers"`
}

type answersResponse struct {
	// Applied counts the verdicts applied; Records describes each.
	Applied int          `json:"applied"`
	Records []RuleRecord `json:"records"`
	// Status of the labeler after the batch.
	Questions  int  `json:"questions"`
	BudgetLeft int  `json:"budget_left"`
	Positives  int  `json:"positives"`
	Done       bool `json:"done"`
	// Error is set when the batch stopped early: the verdicts in Records
	// were applied, the rest were not (fail-fast; nothing is rolled back).
	Error *ErrorEnvelope `json:"error,omitempty"`
}

// Answer implements Labeler.
func (r *RemoteLabeler) Answer(ctx context.Context, ans Answer) error {
	_, err := r.AnswerBatch(ctx, []Answer{ans})
	return err
}

// AnswerBatch implements BatchAnswerer: the batch is one POST, applied by
// the server in order and fail-fast. When the batch stops early the server
// responds with the applied prefix plus an embedded error envelope, so the
// returned records are exact even across the wire.
func (r *RemoteLabeler) AnswerBatch(ctx context.Context, answers []Answer) ([]RuleRecord, error) {
	recs, _, err := r.AnswerBatchStatus(ctx, answers)
	return recs, err
}

// AnswerBatchStatus implements BatchStatusAnswerer. The /v2 batch-answers
// response already carries the post-batch counters, so this is the same
// single POST as AnswerBatch — no extra status round trip, and no window in
// which the server can vanish between applying the batch and reporting it.
func (r *RemoteLabeler) AnswerBatchStatus(ctx context.Context, answers []Answer) ([]RuleRecord, Status, error) {
	var resp answersResponse
	if err := r.c.do(ctx, http.MethodPost, r.path("/answers"), answersRequest{Answers: answers}, &resp); err != nil {
		return nil, Status{}, err
	}
	st := Status{
		ID:        r.id,
		Questions: resp.Questions,
		Budget:    resp.Questions + resp.BudgetLeft,
		Positives: resp.Positives,
		Done:      resp.Done,
	}
	if resp.Error != nil {
		return resp.Records, st, resp.Error.Err()
	}
	return resp.Records, st, nil
}

// Report implements Labeler.
func (r *RemoteLabeler) Report(ctx context.Context) (Report, error) {
	var rep Report
	err := r.c.do(ctx, http.MethodGet, r.path("/report"), nil, &rep)
	return rep, err
}

// Export implements Labeler: it streams the server's JSONL export into w.
func (r *RemoteLabeler) Export(ctx context.Context, w io.Writer) error {
	resp, err := r.c.roundTrip(ctx, http.MethodGet, r.path("/export"), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("%w: stream export: %v", ErrUnavailable, err)
	}
	return nil
}

// Close implements Labeler: it deletes the server-side labeler (for a
// workspace attachment, detaching the annotator).
func (r *RemoteLabeler) Close(ctx context.Context) error {
	return r.c.do(ctx, http.MethodDelete, r.path(""), nil, nil)
}

// Status implements Statuser.
func (r *RemoteLabeler) Status(ctx context.Context) (Status, error) {
	var st Status
	err := r.c.do(ctx, http.MethodGet, r.path(""), nil, &st)
	return st, err
}
