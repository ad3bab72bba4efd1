package shard

import (
	"context"
	"fmt"
	"io"

	"repro/internal/autolabel"
	"repro/pkg/darwin"
)

// Labeling-job routing: jobs are dataset-scoped, so every job verb goes to
// the dataset's current primary (the placement map when failover management
// is on, else the ring owner) — the same shard fresh labeler creates land
// on. Job records ride the shard journal and fail over with their dataset,
// so the primary always holds them; job ids are the shard's own ids, and
// the dataset in every job URL is all the routing needs.

// resolveJobSpec rewrites a router-namespaced labeler reference in the spec
// into the backend id, verifying it lives on the shard that will run the
// job (a labeler on another shard cannot vote into this shard's corpus
// scan).
func (r *Router) resolveJobSpec(target *shard, spec autolabel.Spec) (autolabel.Spec, error) {
	if spec.Labeler == "" {
		return spec, nil
	}
	sh, backendID, err := r.locate(spec.Labeler)
	if err != nil {
		return spec, err
	}
	if sh != target {
		return spec, fmt.Errorf("%w: labeler %s lives on shard %q, but dataset jobs run on shard %q",
			darwin.ErrInvalid, spec.Labeler, sh.name, target.name)
	}
	spec.Labeler = backendID
	return spec, nil
}

// CreateLabelingJob implements the server Backend: the job is placed on the
// dataset's primary. Creates are attempted once — a retry after a lost
// response would enqueue (and run) the job twice.
func (r *Router) CreateLabelingJob(ctx context.Context, dataset string, spec autolabel.Spec) (autolabel.JobStatus, error) {
	if dataset == "" {
		return autolabel.JobStatus{}, fmt.Errorf("%w: dataset is required", darwin.ErrInvalid)
	}
	sh := r.primaryFor(dataset)
	spec, err := r.resolveJobSpec(sh, spec)
	if err != nil {
		return autolabel.JobStatus{}, err
	}
	st, err := sh.client.CreateLabelingJob(ctx, dataset, spec)
	observeOnce(sh, "job_create", err)
	return st, err
}

// LabelingJob implements the server Backend. Status polls are idempotent and
// retry.
func (r *Router) LabelingJob(ctx context.Context, dataset, id string) (autolabel.JobStatus, error) {
	sh := r.primaryFor(dataset)
	var st autolabel.JobStatus
	err := r.retry(ctx, sh, "job_status", func() error {
		var e error
		st, e = sh.client.LabelingJob(ctx, dataset, id)
		return e
	})
	return st, err
}

// LabelingJobOutput implements the server Backend: the download streams
// straight through, retrying only while nothing has been written yet (after
// first bytes a retry would corrupt the stream; the client resumes with
// offset instead).
func (r *Router) LabelingJobOutput(ctx context.Context, dataset, id string, offset int64, w io.Writer) error {
	sh := r.primaryFor(dataset)
	cw := &countingWriter{w: w}
	return r.retryWhile(ctx, sh, "job_output", func() error {
		return sh.client.LabelingJobOutput(ctx, dataset, id, offset, cw)
	}, func() bool { return cw.n == 0 })
}

// SnubaBaseline implements the server Backend: synchronous compute on the
// dataset's primary (any holder of the corpus computes the same answer, and
// the primary is the shard guaranteed to serve the dataset). Idempotent, so
// it retries.
func (r *Router) SnubaBaseline(ctx context.Context, dataset string, req autolabel.SnubaRequest) (autolabel.SnubaResult, error) {
	if dataset == "" {
		return autolabel.SnubaResult{}, fmt.Errorf("%w: dataset is required", darwin.ErrInvalid)
	}
	sh := r.primaryFor(dataset)
	// Compare rules arrive as plain rule specs, not namespaced ids — no
	// rewriting needed.
	var res autolabel.SnubaResult
	err := r.retry(ctx, sh, "snuba", func() error {
		var e error
		res, e = sh.client.SnubaBaseline(ctx, dataset, req)
		return e
	})
	return res, err
}
