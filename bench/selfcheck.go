package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"clustersched/internal/serve"
	"clustersched/internal/wal"
)

// Harness validity: a latency L added inside one layer must move the
// measured end-to-end figure by L, or the harness is not measuring what
// it claims. The delay goes in at fsync, through the WAL's filesystem
// seam, and is read back from the handler rung's p50.

const (
	selfcheckDelay = time.Millisecond
	selfcheckOps   = 1500
	selfcheckTol   = 0.10
)

// delayFS is the real filesystem with every File.Sync replaced by a fixed
// delay. The real fsync is left out of both passes: after a 1 ms pause
// the disk path has gone idle and the next fsync takes longer (measured:
// +200 us), which is the host's behaviour and not the harness's. The
// delay spins instead of sleeping, because a sleep overshoots by the
// timer slack.
type delayFS struct {
	wal.OSFS
	delay time.Duration
}

type delayFile struct {
	wal.File
	delay time.Duration
}

func (fs delayFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return delayFile{f, fs.delay}, nil
}

func (f delayFile) Sync() error {
	for until := time.Now().Add(f.delay); time.Now().Before(until); {
	}
	return nil
}

func (b *bench) selfcheck() error {
	s, _ := findSpec("serve_durable")
	reqs, err := genRequests(b.seed, selfcheckOps, s)
	if err != nil {
		return err
	}
	pass := func(name string, fsys wal.FS) (float64, error) {
		srv, err := newReplayServer(s, func(c *serve.Config) {
			c.WALDir = filepath.Join(b.tmp, name)
			c.WALFS = fsys
		})
		if err != nil {
			return 0, err
		}
		hr := handlerRung(srv.Handler(), reqs, nil)
		if err := srv.Close(); err != nil {
			return 0, err
		}
		if hr.non200 > 0 {
			return 0, fmt.Errorf("selfcheck %s: %d answers other than 200", name, hr.non200)
		}
		p50, _ := p50p99(hr.opUS)
		return p50, nil
	}
	base, err := pass("plain", delayFS{})
	if err != nil {
		return err
	}
	slow, err := pass("delayed", delayFS{delay: selfcheckDelay})
	if err != nil {
		return err
	}
	want := us(selfcheckDelay)
	shift := slow - base
	fmt.Printf("selfcheck: serve.handler_p50_us %.1f -> %.1f with %.0f us injected at fsync: shift %.1f us (%.1f %% of the injected delay)\n",
		base, slow, want, shift, 100*shift/want)
	if math.Abs(shift-want) > selfcheckTol*want {
		return fmt.Errorf("selfcheck: shift %.1f us is not within %.0f %% of %.0f us", shift, 100*selfcheckTol, want)
	}
	return nil
}
