package sim

import (
	"fmt"
	"strings"
)

// Invariant is one named machine-checked property of a simulation model.
// Check returns nil while the property holds and a descriptive error the
// moment it does not.
type Invariant struct {
	Name  string
	Check func() error
}

// InvariantChecker runs a set of model invariants after every processed
// event, plus the kernel's own clock-monotonicity property. It is attached
// to an engine with Engine.SetInvariantChecker and is meant for test and
// `-race` builds and for explicit opt-in (clustersim -check-invariants):
// the engine pays a single nil check per event when no checker is
// installed.
//
// Violations are collected rather than panicking so a failing run can
// report every broken property at once; Err surfaces them as one error.
type InvariantChecker struct {
	invs []Invariant

	prevNow float64
	hasPrev bool

	violations []string
	dropped    int
}

// NewInvariantChecker returns a checker with only the kernel clock
// invariant armed; model invariants are added with Register.
func NewInvariantChecker() *InvariantChecker {
	return &InvariantChecker{}
}

// Register adds a model invariant evaluated after every event.
func (c *InvariantChecker) Register(name string, check func() error) {
	c.invs = append(c.invs, Invariant{Name: name, Check: check})
}

// maxViolations bounds the collected report; further violations are
// counted but not recorded.
const maxViolations = 16

// record appends one violation, respecting maxViolations.
func (c *InvariantChecker) record(msg string) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, msg)
}

// observe runs all invariants at an event boundary. It is called by the
// engine after each handler returns.
func (c *InvariantChecker) observe(e *Engine) {
	now := e.Now()
	if c.hasPrev && now < c.prevNow {
		c.record(fmt.Sprintf("clock-monotonic: t=%.9g after t=%.9g", now, c.prevNow))
	}
	c.prevNow = now
	c.hasPrev = true
	for _, inv := range c.invs {
		if err := inv.Check(); err != nil {
			c.record(fmt.Sprintf("%s: t=%.9g: %v", inv.Name, now, err))
		}
	}
}

// Violations returns the recorded violation messages in detection order.
func (c *InvariantChecker) Violations() []string {
	return append([]string(nil), c.violations...)
}

// Err returns nil when every invariant held, or one error summarizing all
// recorded violations.
func (c *InvariantChecker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim: %d invariant violation(s)", len(c.violations)+c.dropped)
	if c.dropped > 0 {
		fmt.Fprintf(&sb, " (%d not recorded)", c.dropped)
	}
	for _, v := range c.violations {
		sb.WriteString("\n  ")
		sb.WriteString(v)
	}
	return fmt.Errorf("%s", sb.String())
}
