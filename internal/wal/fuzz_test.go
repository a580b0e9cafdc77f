package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noSyncFS is the real filesystem with fsync skipped: FuzzWALRecover
// checks what recovery makes of the bytes on disk, and the several
// fsyncs every segment rotation costs would hold it to a few execs per
// second.
type noSyncFS struct{ OSFS }

func (noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// FuzzWALRecover writes n committed records over small segments (folded
// into compact.wal or left sealed), then damages one file: an overwrite
// with patch at off, a truncation at off, or patch appended. Open must
// not panic, must never return a damaged or reordered record, and must
// either recover exactly the records before the first damaged frame or,
// when intact frames in later files follow that frame (interior
// corruption), refuse with an error.
func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(3), uint16(0), true, uint8(0), uint8(2), uint16(0), []byte{0x10, 0, 0, 0, 0xde, 0xad})
	f.Add(uint8(12), uint16(40), true, uint8(0), uint8(0), uint16(20), []byte{0xff})
	f.Add(uint8(12), uint16(40), true, uint8(1), uint8(1), uint16(30), []byte(nil))
	f.Add(uint8(20), uint16(10), false, uint8(2), uint8(0), uint16(5), []byte("garbage"))
	f.Add(uint8(20), uint16(10), false, uint8(0), uint8(1), uint16(0), []byte(nil))
	f.Add(uint8(20), uint16(10), false, uint8(255), uint8(1), uint16(16), []byte(nil))
	f.Add(uint8(0), uint16(0), false, uint8(0), uint8(0), uint16(0), []byte{0x09, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, segBytes uint16, fold bool, file, kind uint8, off uint16, patch []byte) {
		dir := t.TempDir()
		opts := Options{Dir: dir, FS: noSyncFS{}, SegmentBytes: 64 + int64(segBytes%512), NoAutoCompact: !fold}
		want := make([][]byte, n%40)
		l, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] = []byte(fmt.Sprintf("r%d:%s", i+1, strings.Repeat("x", i*7%23)))
			if _, err := l.Append(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// The files in recovery order, and where each frame sits in them.
		type frame struct {
			index      uint64
			start, end int64
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if _, ok := segmentFirst(e.Name()); ok || e.Name() == compactName {
				names = append(names, e.Name())
			}
		}
		sort.Slice(names, func(i, j int) bool {
			fi, _ := segmentFirst(names[i])
			fj, _ := segmentFirst(names[j])
			return fi < fj // compact.wal parses as 0, so it sorts first
		})
		frames := make([][]frame, len(names))
		olds := make([][]byte, len(names))
		for i, name := range names {
			if olds[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			sc := frameScanner{r: bytes.NewReader(olds[i])}
			for {
				start := sc.off
				idx, _, err := sc.next()
				if err != nil {
					break
				}
				frames[i] = append(frames[i], frame{idx, start, sc.off})
			}
		}

		// Damage one file.
		target := int(file) % len(names)
		old := olds[target]
		var mangled []byte
		switch o := int(off) % (len(old) + 1); kind % 3 {
		case 0:
			mangled = append([]byte(nil), old...)
			for i, b := range patch {
				if o+i < len(mangled) {
					mangled[o+i] = b
				} else {
					mangled = append(mangled, b)
				}
			}
		case 1:
			mangled = old[:o]
		default:
			mangled = append(append([]byte(nil), old...), patch...)
		}
		if err := os.WriteFile(filepath.Join(dir, names[target]), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		first := uint64(len(want) + 1) // the first damaged frame's index
		for _, fr := range frames[target] {
			if int64(len(mangled)) < fr.end || !bytes.Equal(mangled[fr.start:fr.end], old[fr.start:fr.end]) {
				first = fr.index
				break
			}
		}
		intactAfter := false
		for _, frs := range frames[target+1:] {
			intactAfter = intactAfter || len(frs) > 0
		}

		l, rec, err := Open(opts)
		if err != nil {
			if first > uint64(len(want)) || !intactAfter {
				t.Fatalf("refused a log with no interior damage (first damaged frame %d of %d): %v", first, len(want), err)
			}
			return
		}
		defer l.Close()
		if first <= uint64(len(want)) && intactAfter {
			t.Fatalf("accepted interior damage at frame %d of %d with intact frames in later files", first, len(want))
		}
		if got := uint64(len(rec.Records)); got != first-1 {
			t.Fatalf("recovered %d records, want the %d before the first damaged frame", got, first-1)
		}
		for i, r := range rec.Records {
			if r.Index != uint64(i+1) || !bytes.Equal(r.Data, want[i]) {
				t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.Index, r.Data, i+1, want[i])
			}
		}
	})
}
