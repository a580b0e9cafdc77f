package serve

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Shed levels, in escalation order. Each level sheds strictly more than
// the one below, so recovering load walks back down the same ladder.
const (
	// shedNone: everything on.
	shedNone = iota
	// shedAudit: the audit slow path is off — decisions are still made
	// and journaled, just without per-node evaluation records. PR 5's
	// differential tests prove the decisions themselves are identical.
	shedAudit
	// shedClass: sheddable-class (low-urgency) requests get 503.
	shedClass
	// shedAll: everything but health checks (and the metrics scrape that
	// tells operators why) gets 503.
	shedAll
)

// Queue-fill fractions at which the ladder escalates to shedAudit,
// shedClass and shedAll.
const (
	level1Fill = 0.5
	level2Fill = 0.75
	level3Fill = 0.95
)

// shedder derives the current shed level from the admission queue's
// fill and keeps the history of level transitions.
type shedder struct {
	// logW, when non-nil, receives one timestamped line per level
	// transition; now supplies the timestamp (test-overridable).
	logW io.Writer
	now  func() time.Time

	// Transition tracking: the level is derived (recomputed at every
	// query point), so transitions are detected by comparing against
	// the last level a tracked query saw. trans is a bounded ring of
	// the most recent transitions, transTotal counts them all.
	mu         sync.Mutex
	lastLvl    int
	trans      []shedTransition
	transTotal uint64
}

// shedTransition is one shed-ladder level change, as surfaced on
// /debug/shed and in the transition log line.
type shedTransition struct {
	At   time.Time `json:"at"`
	From int       `json:"from"`
	To   int       `json:"to"`
	// Fill is the queue fill fraction at the transition.
	Fill float64 `json:"fill"`
}

// maxTransitions bounds the transition ring.
const maxTransitions = 64

func newShedder(logW io.Writer, now func() time.Time) *shedder {
	if now == nil {
		now = time.Now
	}
	return &shedder{logW: logW, now: now}
}

// queueFill is the admission queue's fill fraction.
func queueFill(qlen, qcap int) float64 {
	if qcap > 0 {
		return float64(qlen) / float64(qcap)
	}
	return 0
}

// fillLevel maps the current queue fill onto the ladder.
func fillLevel(qlen, qcap int) int {
	switch fill := queueFill(qlen, qcap); {
	case fill >= level3Fill:
		return shedAll
	case fill >= level2Fill:
		return shedClass
	case fill >= level1Fill:
		return shedAudit
	}
	return shedNone
}

// levelTracked is fillLevel plus transition accounting: when the computed
// level differs from the last tracked one — up or down — the transition
// is recorded (bounded ring + total counter) and logged with a
// timestamp. Every serving call site queries through this, so any
// escalation or recovery the ladder ever acts on is visible.
func (d *shedder) levelTracked(qlen, qcap int) int {
	lvl := fillLevel(qlen, qcap)
	d.mu.Lock()
	if lvl == d.lastLvl {
		d.mu.Unlock()
		return lvl
	}
	tr := shedTransition{At: d.now(), From: d.lastLvl, To: lvl, Fill: queueFill(qlen, qcap)}
	d.lastLvl = lvl
	if len(d.trans) >= maxTransitions {
		copy(d.trans, d.trans[1:])
		d.trans = d.trans[:maxTransitions-1]
	}
	d.trans = append(d.trans, tr)
	d.transTotal++
	logW := d.logW
	d.mu.Unlock()
	if logW != nil {
		fmt.Fprintf(logW, "shed: %s level %d -> %d (queue %d/%d)\n",
			tr.At.UTC().Format(time.RFC3339Nano), tr.From, tr.To, qlen, qcap)
	}
	return lvl
}

// transitions returns a copy of the recent-transition ring (oldest
// first) and the total transition count.
func (d *shedder) transitions() ([]shedTransition, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]shedTransition(nil), d.trans...), d.transTotal
}
