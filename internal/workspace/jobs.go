package workspace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Labeling-job record kinds. The job subsystem (internal/autolabel) runs
// jobs; their records are dataset-scoped events in the manager's journal,
// so they compact, replicate and fail over with the workspaces.
const (
	JobCreate = "create"
	JobDone   = "done"
	JobFailed = "failed"
	JobExpire = "expire"
)

// JobRecord is one labeling-job record. Body is the job subsystem's
// payload, which the manager stores without reading it.
type JobRecord struct {
	Kind string          `json:"kind"`
	ID   string          `json:"id"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Job is what the manager retains of one labeling job: its first create
// record, then its first terminal (done or failed) record, if any. Later
// duplicates change nothing, and an expire record drops the job.
type Job struct {
	Dataset string
	Records []JobRecord
}

// applyJobLocked folds one record into the retained job table — replay and
// the live path share it — and reports whether the record changed it.
// Callers hold m.mu.
func (m *Manager) applyJobLocked(dataset string, rec JobRecord) bool {
	j, ok := m.jobs[rec.ID]
	switch {
	case rec.Kind == JobCreate && !ok:
		m.jobs[rec.ID] = &Job{Dataset: dataset, Records: []JobRecord{rec}}
	case !ok || j.Dataset != dataset:
		return false
	case rec.Kind == JobExpire:
		delete(m.jobs, rec.ID)
	case (rec.Kind == JobDone || rec.Kind == JobFailed) && len(j.Records) == 1:
		j.Records = append(j.Records, rec)
	default:
		return false
	}
	return true
}

// journalJobLocked applies a record and journals it when it changed the
// table; like an eviction, it stays applied if the append fails (the
// Writer's error is sticky). Callers hold the gate read lock and m.mu.
func (m *Manager) journalJobLocked(dataset string, rec JobRecord) error {
	if !m.applyJobLocked(dataset, rec) || m.jw == nil {
		return nil
	}
	if _, err := m.jw.Append(evJob, "", dataset, rec); err != nil {
		return fmt.Errorf("workspace: %w: %v", ErrJournal, err)
	}
	return nil
}

// AppendJob journals labeling-job records for a dataset, forces them to
// disk and then waits on the replication barrier, like every acknowledged
// state change. A record that changes nothing (a second terminal record, a
// record of a dropped job) is not journaled. Promotion adopts a standby's
// retained records through it too.
//
//darwin:journals
func (m *Manager) AppendJob(dataset string, recs ...JobRecord) error {
	if _, ok := m.engines[dataset]; !ok {
		return fmt.Errorf("workspace: unknown dataset %q", dataset)
	}
	var err error
	m.gate.RLock()
	m.mu.Lock()
	for _, rec := range recs {
		if err = m.journalJobLocked(dataset, rec); err != nil {
			break
		}
	}
	m.mu.Unlock()
	if err == nil {
		if err = m.Sync(); err != nil {
			err = fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
	}
	m.gate.RUnlock()
	if err == nil {
		m.awaitReplication(dataset)
	}
	return err
}

// Jobs returns the retained labeling jobs of a dataset ("" for every
// dataset), sorted by job id.
func (m *Manager) Jobs(dataset string) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobsLocked(dataset)
}

func (m *Manager) jobsLocked(dataset string) []Job {
	ids := make([]string, 0, len(m.jobs))
	for id, j := range m.jobs {
		if dataset == "" || j.Dataset == dataset {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]Job, len(ids))
	for i, id := range ids {
		out[i] = *m.jobs[id]
	}
	return out
}
