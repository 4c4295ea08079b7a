// Event history and subscriptions: every journaled state transition
// (submitted, running, checkpointed(n), done/failed/cancelled, drain
// handoffs) is numbered per job and fanned out to subscribers — the
// feed behind GET /v1/jobs/{id}/events. The history is rebuilt from the
// WAL on Open, so a subscriber attaching after a crash replays the same
// state sequence the journal records (compaction collapses a job's
// prior transitions into one snapshot record, and the rebuilt history
// collapses identically). Sequence numbers restart with the history:
// a resume cursor larger than the newest retained event means a new
// server generation, and the subscription replays from the start.

package jobs

import (
	"errors"
	"time"
)

// Event is one numbered state transition of one job. Seq increases by 1
// per transition within a server generation; checkpointed events carry
// the cumulative durable point count in Done, so a trimmed or skipped
// event never loses progress information.
type Event struct {
	Seq   int       `json:"seq"`
	Job   string    `json:"job"`
	State State     `json:"state"` // submitted|running|checkpointed|done|failed|cancelled
	Done  int       `json:"done,omitempty"`
	Error string    `json:"error,omitempty"`
	Time  time.Time `json:"time"`
	// Terminal marks the stream-ending event (done/failed/cancelled).
	Terminal bool `json:"terminal,omitempty"`
}

// ErrSubscriberLimit is returned by Subscribe when the manager-wide
// fan-out bound is reached; the caller should fall back to polling.
var ErrSubscriberLimit = errors.New("jobs: too many event subscribers")

// subscriberBuffer is the live-event headroom of a subscription channel
// beyond the replayed backlog. A consumer that falls further behind is
// dropped (channel closed) and resumes via its last seen Seq.
const subscriberBuffer = 64

type subscriber struct {
	ch   chan Event
	done bool // closed (terminal delivered, dropped, cancelled or drained)
}

// Subscription is one live event feed. Read C until it closes; if the
// last event received was not Terminal, the stream was cut (drain or
// slow-consumer drop) and the caller should resubscribe with the last
// Seq it saw. Always Cancel when done reading.
type Subscription struct {
	C   <-chan Event
	m   *Manager
	j   *job
	sub *subscriber
}

// Cancel detaches the subscription. Idempotent; safe after the channel
// closed.
func (s *Subscription) Cancel() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if s.sub.done {
		return
	}
	s.sub.done = true
	close(s.sub.ch)
	s.m.met.Subscribers--
	s.j.compactSubs()
}

// Subscribe attaches a bounded live feed to one job, first replaying
// the retained events with Seq > afterSeq. A cursor beyond the newest
// retained event (a previous server generation) replays everything
// retained. For a terminal job the channel closes right after the
// backlog. Returns ErrNotFound for unknown jobs, ErrDraining during
// shutdown, and ErrSubscriberLimit at the fan-out bound.
func (m *Manager) Subscribe(id string, afterSeq int) (*Subscription, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining {
		return nil, ErrDraining
	}
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if m.met.Subscribers >= m.cfg.MaxSubscribers {
		return nil, ErrSubscriberLimit
	}
	if afterSeq > j.eventSeq {
		afterSeq = 0
	}
	backlog := make([]Event, 0, len(j.events))
	for _, ev := range j.events {
		if ev.Seq > afterSeq {
			backlog = append(backlog, ev)
		}
	}
	sub := &subscriber{ch: make(chan Event, len(backlog)+subscriberBuffer)}
	for _, ev := range backlog {
		sub.ch <- ev
	}
	s := &Subscription{C: sub.ch, m: m, j: j, sub: sub}
	if j.state.Terminal() {
		sub.done = true
		close(sub.ch)
		return s, nil
	}
	j.compactSubs()
	j.subs = append(j.subs, sub)
	m.met.Subscribers++
	return s, nil
}

// Events returns a copy of one job's retained event history in order.
func (m *Manager) Events(id string) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out, nil
}

// appendEventLocked numbers and records one transition, fans it out to
// the job's subscribers, and closes every feed after a terminal event.
// A subscriber whose buffer is full is dropped (closed) rather than
// blocking the journal path; it resumes from its cursor. Requires m.mu.
func (m *Manager) appendEventLocked(j *job, state State, done int, errMsg string, t time.Time) {
	j.eventSeq++
	ev := Event{
		Seq: j.eventSeq, Job: j.id, State: state,
		Done: done, Error: errMsg, Time: t,
		Terminal: state.Terminal(),
	}
	j.events = append(j.events, ev)
	if max := m.cfg.MaxEventsPerJob; len(j.events) > max {
		j.events = append(j.events[:0:0], j.events[len(j.events)-max:]...)
	}
	m.met.EventsTotal++
	for _, sub := range j.subs {
		if sub.done {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.done = true
			close(sub.ch)
			m.met.Subscribers--
			m.met.SubscriberDrops++
		}
	}
	if ev.Terminal {
		m.closeSubsLocked(j)
	} else {
		j.compactSubs()
	}
}

// closeSubsLocked ends every live feed of one job. Requires m.mu.
func (m *Manager) closeSubsLocked(j *job) {
	for _, sub := range j.subs {
		if !sub.done {
			sub.done = true
			close(sub.ch)
			m.met.Subscribers--
		}
	}
	j.subs = nil
}

// compactSubs drops finished subscriber slots from the fan-out list.
func (j *job) compactSubs() {
	live := j.subs[:0]
	for _, sub := range j.subs {
		if !sub.done {
			live = append(live, sub)
		}
	}
	for i := len(live); i < len(j.subs); i++ {
		j.subs[i] = nil
	}
	j.subs = live
}
