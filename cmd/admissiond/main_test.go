package main

import (
	"context"
	"strings"
	"testing"
)

// TestRunRejectsNonPositiveDrainTimeout: with -drain-timeout ≤ 0 the drain
// context would expire before the queue is decided and the checkpoint
// written, so the flag is refused before the daemon starts.
func TestRunRejectsNonPositiveDrainTimeout(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // a daemon that did start drains at once instead of serving
		var sb strings.Builder
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-time-scale", "0", "-drain-timeout", v}, &sb)
		if err == nil || !strings.Contains(err.Error(), "-drain-timeout") {
			t.Errorf("-drain-timeout %s: err = %v, want a refusal naming the flag", v, err)
		}
		if strings.Contains(sb.String(), "listening on") {
			t.Errorf("-drain-timeout %s: the daemon started listening:\n%s", v, sb.String())
		}
	}
}
