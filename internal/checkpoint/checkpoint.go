// Package checkpoint holds the repository's atomic-file primitives and
// the sweep journal built on them.
//
// WriteFileAtomic streams content from a fill callback into a buffered
// sibling temp file, fsyncs it, renames it over the target and fsyncs the
// directory, so the file on disk is always either the complete old one
// or the complete new one — a process killed mid-write never leaves a
// torn file, and the rename itself survives power loss. ForEachLine is
// its reading half: it streams a JSONL file line by line with physical
// line numbers and no cap on line length. Neither holds a whole file in
// memory; the admission daemon's drain checkpoint is written and resumed
// through them, however many operations it carries.
//
// The sweep journal persists completed sweep cells as JSONL so an
// interrupted parameter study resumes instead of restarting. Each record
// carries an opaque content-hash key computed by the caller from
// everything that determines the cell's result (base configuration, run
// spec, workload digest). A journal therefore survives config edits
// safely: a changed configuration changes every key, and stale records
// are simply never matched rather than silently reused. The journal is
// rewritten atomically on every append; sweeps checkpoint tens to a few
// thousand cells, each worth seconds to minutes of simulation, so the
// O(n) rewrite per append is noise against the work it protects.
//
// All file writes go through the wal.FS seam, so tests inject fsync
// failures, rename failures and short writes deterministically and
// assert the previous file is always left intact.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"clustersched/internal/metrics"
	"clustersched/internal/wal"
)

// Record is one completed sweep cell.
type Record struct {
	// Key is the caller-computed content hash identifying the cell.
	Key string `json:"key"`
	// Label names the enclosing study (e.g. "figure1") for humans
	// reading the journal; it is not part of the identity.
	Label string `json:"label,omitempty"`
	// Summary is the cell's full result.
	Summary metrics.Summary `json:"summary"`
	// MeanSigma carries the chaos sweep's monitor aggregate; 0 for
	// sweeps without one.
	MeanSigma float64 `json:"mean_sigma,omitempty"`
}

// Journal is an append-only set of completed cells backed by a JSONL
// file. It is safe for concurrent use by the sweep worker pool.
type Journal struct {
	mu      sync.Mutex
	fs      wal.FS
	path    string
	byKey   map[string]Record
	byPos   map[string]int // key -> position in ordered
	ordered []Record
}

// Open loads the journal at path, creating an empty one (without touching
// the filesystem yet) if the file does not exist. Duplicate keys keep the
// last record, matching append order.
func Open(path string) (*Journal, error) {
	return OpenFS(wal.OSFS{}, path)
}

// OpenFS is Open through an injected filesystem.
func OpenFS(fsys wal.FS, path string) (*Journal, error) {
	j := &Journal{
		fs:    fsys,
		path:  path,
		byKey: make(map[string]Record),
		byPos: make(map[string]int),
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := j.load(f); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return j, nil
}

func (j *Journal) load(r io.Reader) error {
	return ForEachLine(r, func(line int, raw []byte) error {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Key == "" {
			return fmt.Errorf("line %d: record without key", line)
		}
		j.insert(rec)
		return nil
	})
}

// insert records rec under its key in O(1), overwriting in place when
// the key was already journaled. Callers hold j.mu (or have exclusive
// access during load).
func (j *Journal) insert(rec Record) {
	if pos, seen := j.byPos[rec.Key]; seen {
		j.ordered[pos] = rec
	} else {
		j.byPos[rec.Key] = len(j.ordered)
		j.ordered = append(j.ordered, rec)
	}
	j.byKey[rec.Key] = rec
}

// Path returns the backing file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct completed cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.byKey)
}

// Lookup returns the record for key, if one was journaled.
func (j *Journal) Lookup(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.byKey[key]
	return rec, ok
}

// Append journals one completed cell and atomically rewrites the backing
// file (temp file + rename) so the on-disk journal is valid at every
// instant. Appending a key that is already present overwrites its record.
// A failed rewrite leaves the previous journal untouched on disk, and the
// in-memory set still holds the record, so a later Append retries the
// whole rewrite.
func (j *Journal) Append(rec Record) error {
	if rec.Key == "" {
		return errors.New("checkpoint: record without key")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.insert(rec)
	return j.flushLocked()
}

// flushLocked writes all records to a sibling temp file and renames it
// over the journal path. Callers hold j.mu.
func (j *Journal) flushLocked() error {
	return WriteFileJSONLFS(j.fs, j.path, j.ordered)
}

// createTemp opens an exclusive sibling temp file next to path. It is
// os.CreateTemp reduced to the FS seam: a deterministic counter suffix
// stands in for randomness, looping on collisions.
func createTemp(fsys wal.FS, path string) (wal.File, error) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.tmp-%d", path, i)
		f, err := fsys.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
}

// WriteFileJSONL atomically replaces path with one JSON line per record:
// the lines go to a sibling temp file which is fsynced and renamed over
// path, and the parent directory is fsynced so the rename itself survives
// power loss. The file on disk is always a complete, parseable JSONL
// document — a process killed mid-write leaves either the old state or
// the new one, never a torn line.
func WriteFileJSONL[T any](path string, recs []T) error {
	return WriteFileJSONLFS(wal.OSFS{}, path, recs)
}

// WriteFileJSONLFS is WriteFileJSONL through an injected filesystem.
func WriteFileJSONLFS[T any](fsys wal.FS, path string, recs []T) error {
	return WriteFileAtomic(fsys, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for i := range recs {
			if err := enc.Encode(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteFileLines atomically replaces path with the given raw lines (each
// written verbatim plus a trailing newline), under the same temp file +
// fsync + rename + directory-fsync discipline as WriteFileJSONL. Callers
// that need byte-exact content — e.g. a checksummed checkpoint — use this
// instead of re-encoding through a JSON encoder.
func WriteFileLines(fsys wal.FS, path string, lines [][]byte) error {
	return WriteFileAtomic(fsys, path, func(w io.Writer) error {
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return err
			}
			if _, err := w.Write(newline); err != nil {
				return err
			}
		}
		return nil
	})
}

var newline = []byte{'\n'}

// WriteFileAtomic lands whatever fill writes at path: fill streams the
// content into a buffered sibling temp file, which is fsynced and renamed
// over path before the parent directory is fsynced. Nothing holds the
// whole content in memory. On any failure — fill's included — the
// previous file at path is left untouched. This is the durability
// primitive behind the sweep journal and the admission daemon's drain
// checkpoint.
func WriteFileAtomic(fsys wal.FS, path string, fill func(w io.Writer) error) error {
	tmp, err := createTemp(fsys, path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after successful rename
	bw := bufio.NewWriterSize(tmp, 64*1024)
	if err := fill(bw); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := wal.SyncDir(fsys, filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// ForEachLine streams r line by line with no bound on line length,
// calling fn for every non-empty line with its physical 1-based line
// number (blank lines count) and its bytes, "\r\n" or "\n" stripped.
// raw is valid only during the call: fn copies what it keeps. Unlike a
// bufio.Scanner there is no token-size cap: a record larger than any
// fixed buffer still reads back intact.
func ForEachLine(r io.Reader, fn func(line int, raw []byte) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var long []byte // a line longer than br's buffer, reassembled
	line := 0
	for {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if len(raw) > 0 {
			line++
			trimmed := bytes.TrimRight(raw, "\r\n")
			if len(trimmed) > 0 {
				if err := fn(line, trimmed); err != nil {
					return err
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ReadFileJSONL parses a JSONL file written by WriteFileJSONL into one
// record per line. Blank lines are skipped; a missing file is an error
// (callers gate on existence to distinguish "no checkpoint" from a
// corrupt one). Lines of any length are accepted.
func ReadFileJSONL[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var out []T
	err = ForEachLine(f, func(line int, raw []byte) error {
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return out, nil
}

// ReadFileLines returns the non-empty raw lines of path, newline
// stripped, with no bound on line length. Callers that checksum or
// replay byte-exact content read through this.
func ReadFileLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var out [][]byte
	err = ForEachLine(f, func(line int, raw []byte) error {
		out = append(out, append([]byte(nil), raw...))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return out, nil
}
