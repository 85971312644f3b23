package jobs

// Restart recovery. Every job persists one JSON record (atomic tmp+rename,
// same crash semantics as the result store) that is rewritten on every
// lifecycle change and every checkpointed point. On boot, Resume reloads
// the records: terminal jobs come back for listing, non-terminal ones —
// including jobs that were mid-run when the process was SIGKILLed — are
// re-queued. Their point checkpoints live in the content-addressed blob
// store, so the re-run skips straight to the first incomplete sweep point.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nanocache/internal/store"
)

// record is the persisted form of a job.
type record struct {
	ID          string    `json:"id"`
	Spec        Spec      `json:"spec"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	Attempts    int       `json:"attempts"`
	TotalPoints int       `json:"total_points"`
	DonePoints  int       `json:"done_points"`
	ResultKey   string    `json:"result_key"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started,omitempty"`
	Finished    time.Time `json:"finished,omitempty"`
}

// persist writes the job's current record, if persistence is configured.
// It snapshots the record while holding the job's writeMu and writes it
// outside m.mu: Submit, Resume, the worker and parallel point workers all
// persist one job, and serializing them keeps a stale snapshot from being
// renamed over a newer one (a requeued record over the terminal one).
func (m *Manager) persist(id string) {
	if m.cfg.RecordDir == "" {
		return
	}
	m.mu.Lock()
	rec, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return
	}
	rec.writeMu.Lock()
	defer rec.writeMu.Unlock()
	m.mu.Lock()
	r := record{
		ID:          rec.id,
		Spec:        rec.spec,
		State:       rec.state,
		Error:       rec.errMsg,
		Attempts:    rec.attempts,
		TotalPoints: rec.totalPoints,
		DonePoints:  rec.donePoints,
		ResultKey:   rec.resultKey,
		Created:     rec.created,
		Started:     rec.started,
		Finished:    rec.finished,
	}
	m.mu.Unlock()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(m.cfg.RecordDir, 0o755); err != nil {
		return
	}
	store.WriteFileAtomic(filepath.Join(m.cfg.RecordDir, r.ID+".json"), append(b, '\n'), m.cfg.Fsync)
}

// Resume reloads persisted job records. Terminal jobs are registered for
// listing; queued and running ones (a persisted "running" means the process
// died mid-run) are re-queued and will skip every point whose checkpoint
// survives in the blob store. Returns how many jobs were re-queued.
func (m *Manager) Resume() (int, error) {
	if m.cfg.RecordDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(m.cfg.RecordDir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobs: reading record dir: %w", err)
	}
	var recs []record
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.cfg.RecordDir, e.Name()))
		if err != nil {
			continue
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil || r.ID == "" || !r.State.Valid() {
			// A mangled record is not worth crashing the boot over; the job
			// can be resubmitted and will reuse its checkpoints anyway.
			continue
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Created.Before(recs[j].Created) })

	resumed := 0
	var requeued []string
	m.mu.Lock()
	for _, r := range recs {
		if _, exists := m.jobs[r.ID]; exists {
			continue
		}
		rec := &jobRec{
			id:          r.ID,
			spec:        r.Spec,
			state:       r.State,
			errMsg:      r.Error,
			created:     r.Created,
			started:     r.Started,
			finished:    r.Finished,
			attempts:    r.Attempts,
			totalPoints: r.TotalPoints,
			donePoints:  r.DonePoints,
			resultKey:   r.ResultKey,
			waiters:     make(map[int64]chan Update),
		}
		if !rec.state.Terminal() {
			// An interrupted run resumes as a fresh queued attempt.
			rec.state = StateQueued
			rec.enqueued = time.Now()
			select {
			case m.queue <- rec.id:
				requeued = append(requeued, rec.id)
				if rec.resultKey != "" {
					m.byResult[rec.resultKey] = rec.id
				}
				resumed++
			default:
				// Queue full on boot: leave the record on disk untouched so
				// a later Resume (or resubmission) can pick it up.
				continue
			}
		}
		m.jobs[rec.id] = rec
		m.order = append(m.order, rec.id)
	}
	m.mu.Unlock()
	for _, id := range requeued {
		m.persist(id)
	}
	return resumed, nil
}
