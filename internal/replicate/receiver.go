package replicate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workspace"
)

// markType is the standby journal's progress record: appended after every
// applied batch, it pins the (epoch, generation, upto) watermark the standby
// state on disk is consistent with. Events after the last mark were applied
// but not yet marked when the process died, so recovery discards them — the
// primary resends from the marked watermark (or resets). The workspace
// Replayer ignores the type, so a standby journal also replays cleanly
// through the ordinary recovery path.
const markType = "repl_mark"

type markData struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
	Upto  uint64 `json:"upto"`
}

// Receiver is the follower side of replication: per replicated dataset it
// maintains a warm standby — a volatile workspace manager fed through the
// recovery Replayer — plus an on-disk standby journal so the warmth
// survives follower restarts (the double-failure case: the primary is dead
// AND the follower restarted before promotion).
//
// The standby manager shares the process's engines; index materializations
// it replays land in the shared, append-only index, which is exactly where
// the live manager would put them (and the live manager's materialize hook
// journals them). It is created without a journal of its own so it never
// journals workspace events — the Receiver owns standby persistence.
type Receiver struct {
	engines map[string]*core.Engine
	pathFor func(dataset string) string
	logf    func(format string, args ...any)

	mu      sync.Mutex
	standby map[string]*standbyState
}

// standbyState is one dataset's warm standby. The fields after mu are
// guarded by it; Receiver.mu only guards the map.
type standbyState struct {
	mu     sync.Mutex
	mgr    *workspace.Manager
	rep    *workspace.Replayer
	jw     *journal.Writer
	epoch  uint64
	gen    uint64
	upto   uint64
	closed bool
}

// standbyConfig builds the manager config for a warm standby: nothing in it
// may expire or compact on its own — the standby's content is exactly what
// the primary shipped, no more, no less.
func standbyConfig() workspace.ManagerConfig {
	return workspace.ManagerConfig{
		TTL:           time.Duration(math.MaxInt64),
		MaxWorkspaces: math.MaxInt32,
		CompactEvery:  -1,
	}
}

// NewReceiver builds a receiver and recovers any standby journals left on
// disk by a previous process.
func NewReceiver(engines map[string]*core.Engine, pathFor func(dataset string) string, logf func(format string, args ...any)) *Receiver {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Receiver{
		engines: engines,
		pathFor: pathFor,
		logf:    logf,
		standby: make(map[string]*standbyState),
	}
	for ds := range engines {
		r.recoverStandby(ds)
	}
	return r
}

// recoverStandby rebuilds a dataset's warm standby from its on-disk standby
// journal, replaying the consistent prefix (up to the last mark) and
// truncating anything after it. A standby journal that cannot be recovered
// is reset to empty — the next stream session rebuilds it from scratch.
func (r *Receiver) recoverStandby(dataset string) {
	path := r.pathFor(dataset)
	if _, err := os.Stat(path); err != nil {
		return
	}
	jw, events, err := journal.Open(path, journal.Options{})
	if err != nil {
		r.logf("replicate: standby journal %s unreadable (%v); discarding", path, err)
		os.Remove(path)
		return
	}
	lastMark := -1
	var mk markData
	for i, ev := range events {
		if ev.Type == markType && decodeData(ev.Data, &mk) {
			lastMark = i
		}
	}
	if lastMark < 0 {
		jw.Rewrite(nil)
		jw.Close()
		return
	}
	kept := events[:lastMark+1]
	mgr := workspace.NewManager(r.engines, nil, standbyConfig())
	rep := mgr.NewReplayer()
	for _, ev := range kept {
		if ev.Type != markType {
			rep.Apply(ev)
		}
	}
	// Drop the unmarked tail from disk too, so a resumed stream cannot
	// duplicate those events in the file for the next recovery to double-
	// apply.
	if lastMark != len(events)-1 {
		if err := jw.Rewrite(kept); err != nil {
			r.logf("replicate: truncate standby journal %s: %v; discarding", path, err)
			rep.Close()
			jw.Close()
			os.Remove(path)
			return
		}
	}
	st := &standbyState{mgr: mgr, rep: rep, jw: jw, epoch: mk.Epoch, gen: mk.Gen, upto: mk.Upto}
	r.standby[dataset] = st
	stats := rep.Stats()
	replStandbyWS.With(dataset).Set(float64(stats.Workspaces))
	r.logf("replicate: recovered warm standby for %s: %d workspaces at epoch %d, upto %d",
		dataset, stats.Workspaces, mk.Epoch, mk.Upto)
}

// Apply applies one replicated batch. minEpoch is the dataset's durable
// fence: batches below it are from a zombie ex-primary and rejected with
// ErrFenced. Non-reset batches must extend the standby contiguously (same
// epoch, same journal generation, From equal to the applied watermark);
// anything else returns ErrResync and the sender restarts its session.
func (r *Receiver) Apply(dataset string, b Batch, minEpoch uint64) (BatchAck, error) {
	if b.Epoch < minEpoch {
		replFenced.Inc()
		return BatchAck{}, fmt.Errorf("%w: batch epoch %d is below fence %d for %q", ErrFenced, b.Epoch, minEpoch, dataset)
	}
	if _, ok := r.engines[dataset]; !ok {
		return BatchAck{}, fmt.Errorf("replicate: dataset %q is not served here", dataset)
	}
	r.mu.Lock()
	st := r.standby[dataset]
	var old *standbyState
	if b.Reset {
		old = st
		st = r.newStandbyLocked(dataset)
		if st == nil {
			r.mu.Unlock()
			return BatchAck{}, fmt.Errorf("replicate: cannot open standby journal for %q", dataset)
		}
		r.standby[dataset] = st
		replResyncs.Inc()
	} else if st == nil {
		r.mu.Unlock()
		return BatchAck{}, fmt.Errorf("%w: no standby for %q", ErrResync, dataset)
	}
	r.mu.Unlock()
	if old != nil {
		old.discard(false)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return BatchAck{}, fmt.Errorf("%w: standby for %q was consumed", ErrResync, dataset)
	}
	if b.Reset {
		st.epoch, st.gen, st.upto = b.Epoch, b.Gen, b.From
	} else if b.Epoch != st.epoch || b.Gen != st.gen || b.From != st.upto {
		return BatchAck{}, fmt.Errorf("%w: batch (epoch %d gen %d from %d) does not extend standby (epoch %d gen %d upto %d)",
			ErrResync, b.Epoch, b.Gen, b.From, st.epoch, st.gen, st.upto)
	}
	for _, ev := range b.Events {
		st.rep.Apply(ev)
		if _, err := st.jw.Append(ev.Type, ev.WS, ev.Dataset, ev.Data); err != nil {
			return BatchAck{}, fmt.Errorf("replicate: standby journal append: %w", err)
		}
	}
	st.upto = b.Upto
	if _, err := st.jw.Append(markType, "", dataset, markData{Epoch: st.epoch, Gen: st.gen, Upto: st.upto}); err != nil {
		return BatchAck{}, fmt.Errorf("replicate: standby journal mark: %w", err)
	}
	if n := len(b.Events); n > 0 {
		replApplied.With(dataset).Add(uint64(n))
		replStandbyWS.With(dataset).Set(float64(st.rep.Stats().Workspaces))
	}
	return BatchAck{Upto: st.upto}, nil
}

// newStandbyLocked creates a fresh, empty standby (truncating the on-disk
// standby journal). Callers hold r.mu.
func (r *Receiver) newStandbyLocked(dataset string) *standbyState {
	path := r.pathFor(dataset)
	jw, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		os.Remove(path)
		if jw, _, err = journal.Open(path, journal.Options{}); err != nil {
			r.logf("replicate: open standby journal %s: %v", path, err)
			return nil
		}
	}
	if err := jw.Rewrite(nil); err != nil {
		r.logf("replicate: reset standby journal %s: %v", path, err)
		jw.Close()
		return nil
	}
	mgr := workspace.NewManager(r.engines, nil, standbyConfig())
	return &standbyState{mgr: mgr, rep: mgr.NewReplayer(), jw: jw}
}

// discard closes a standby's replayer and journal. With truncate the
// on-disk standby journal is emptied first — used after promotion, when the
// state has moved into the live journal and a stale warm copy must not be
// recovered again.
func (st *standbyState) discard(truncate bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	st.rep.Close()
	if truncate {
		st.jw.Rewrite(nil)
	}
	st.jw.Close()
}

// TakeStandby removes a dataset's standby from the receiver and returns its
// contents for promotion: the materialized rule specs, a snapshot of every
// standby workspace and the retained labeling-job records, plus a cleanup
// function the caller must invoke once the state is safely adopted
// (truncate=true) or the adoption failed (truncate=false, keeping the
// on-disk standby recoverable).
func (r *Receiver) TakeStandby(dataset string) (specs []string, snaps []*workspace.Snapshot, jobs []workspace.Job, upto uint64, cleanup func(truncate bool), ok bool) {
	r.mu.Lock()
	st := r.standby[dataset]
	delete(r.standby, dataset)
	r.mu.Unlock()
	if st == nil {
		return nil, nil, nil, 0, nil, false
	}
	st.mu.Lock()
	specs = st.mgr.MaterializedSpecs(dataset)
	for _, id := range st.mgr.IDsByDataset(dataset) {
		if ws, live := st.mgr.Peek(id); live {
			snaps = append(snaps, ws.Snapshot())
		}
	}
	jobs = st.mgr.Jobs(dataset)
	upto = st.upto
	st.mu.Unlock()
	replStandbyWS.With(dataset).Set(0)
	return specs, snaps, jobs, upto, st.discard, true
}

// Drop discards a dataset's standby (and its on-disk journal): the shard is
// no longer this dataset's follower.
func (r *Receiver) Drop(dataset string) {
	r.mu.Lock()
	st := r.standby[dataset]
	delete(r.standby, dataset)
	r.mu.Unlock()
	if st != nil {
		st.discard(true)
		replStandbyWS.With(dataset).Set(0)
	}
}

// StatusFor reports a dataset's standby watermark and size.
func (r *Receiver) StatusFor(dataset string) (epoch, upto uint64, workspaces int, ok bool) {
	r.mu.Lock()
	st := r.standby[dataset]
	r.mu.Unlock()
	if st == nil {
		return 0, 0, 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch, st.upto, st.rep.Stats().Workspaces, true
}

// Datasets lists the datasets with a live standby.
func (r *Receiver) Datasets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.standby))
	for ds := range r.standby {
		out = append(out, ds)
	}
	return out
}

// Close closes every standby without truncating the on-disk journals, so a
// restarted follower recovers them warm.
func (r *Receiver) Close() {
	r.mu.Lock()
	standbys := make([]*standbyState, 0, len(r.standby))
	for _, st := range r.standby {
		standbys = append(standbys, st)
	}
	r.standby = make(map[string]*standbyState)
	r.mu.Unlock()
	for _, st := range standbys {
		st.discard(false)
	}
}

func decodeData(raw json.RawMessage, v any) bool {
	return len(raw) > 0 && json.Unmarshal(raw, v) == nil
}
