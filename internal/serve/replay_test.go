package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersched/internal/wal"
)

// checkpointBytes renders ops as the drain checkpoint cfg would write —
// meta header, one op per line, the header's CRC over exactly the body
// bytes — so a test controls the ops while the checksum stays valid.
func checkpointBytes(cfg Config, ops []Op) ([]byte, error) {
	cfg = cfg.withDefaults()
	var body bytes.Buffer
	crc := uint32(0)
	for i := range ops {
		raw, err := json.Marshal(checkpointLine{Op: &ops[i]})
		if err != nil {
			return nil, err
		}
		raw = append(raw, '\n')
		crc = wal.ChecksumAdd(crc, raw)
		body.Write(raw)
	}
	hdr, err := json.Marshal(checkpointLine{Meta: &checkpointMeta{
		Version: checkpointVersion, Policy: cfg.Policy, Nodes: cfg.Nodes,
		Rating: cfg.Rating, Sigma: cfg.SigmaThreshold, Ops: len(ops), CRC: crc,
	}})
	if err != nil {
		return nil, err
	}
	return append(append(hdr, '\n'), body.Bytes()...), nil
}

// validAdmit is a recovered admit op every policy accepts on an idle
// cluster.
func validAdmit(seq int, t float64) Op {
	return Op{Seq: seq, T: t, NumProc: 1, Runtime: 60, Estimate: 60, Deadline: 200, Audited: true}
}

// TestReplayRefusesInvalidRecoveredOp: a checkpoint or WAL whose checksum
// is correct can still hold an op the live handlers would have refused,
// such as a node index past the cluster, which would panic New with an
// index out of range. Resume must refuse it with an error naming the line
// or record, on both recovery paths.
func TestReplayRefusesInvalidRecoveredOp(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"node past the cluster", Op{Seq: 2, T: 5, Kind: "node", Node: cfg.Nodes + 5, Down: true}},
		{"negative node", Op{Seq: 2, T: 5, Kind: "node", Node: -1, Down: true}},
		{"unknown kind", Op{Seq: 2, T: 5, Kind: "reboot"}},
		{"negative runtime", Op{Seq: 2, T: 5, NumProc: 1, Runtime: -60, Estimate: 60, Deadline: 200}},
		{"zero numproc", Op{Seq: 2, T: 5, Runtime: 60, Estimate: 60, Deadline: 200}},
		{"unknown class", Op{Seq: 2, T: 5, NumProc: 1, Runtime: 60, Estimate: 60, Deadline: 200, Class: 7}},
		{"negative t", Op{Seq: 2, T: -5, Kind: "node", Node: 0, Down: true}},
		{"repeated seq", Op{Seq: 1, T: 5, Kind: "node", Node: 0, Down: true}},
	} {
		t.Run("checkpoint/"+tc.name, func(t *testing.T) {
			data, err := checkpointBytes(cfg, []Op{validAdmit(1, 0), tc.op})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "c.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.CheckpointPath, rcfg.Resume = path, true
			s, err := New(rcfg)
			if err == nil {
				s.Close()
				t.Fatalf("resumed over a checkpoint holding %+v", tc.op)
			}
			if !strings.Contains(err.Error(), "line 3") {
				t.Fatalf("error %q does not name the bad line", err)
			}
		})
	}

	t.Run("wal/node past the cluster", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		s1, hts := newTestServer(t, durableConfig(dir))
		if _, resp := admitAt(t, hts.URL, 0, AdmitRequest{NumProc: 1, Runtime: 60, Deadline: 200}); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit: status %d", resp.StatusCode)
		}
		if err := s1.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		log, _, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(walRecord{Op: &Op{Seq: 2, T: 5, Kind: "node", Node: cfg.Nodes + 5, Down: true}})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := log.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		rcfg := durableConfig(dir)
		rcfg.Resume = true
		s2, err := New(rcfg)
		if err == nil {
			s2.Close()
			t.Fatal("resumed over a WAL holding an out-of-range node op")
		}
		if want := fmt.Sprintf("wal record %d", idx); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	})
}

// TestNoPersistenceKeepsNoOps: without a checkpoint or a WAL nothing ever
// reads the applied-op log, so a daemon with neither must not keep one; it
// would grow by one Op per request for the life of the process.
func TestNoPersistenceKeepsNoOps(t *testing.T) {
	s, hts := newTestServer(t, testConfig())
	const n = 20
	for i := 0; i < n; i++ {
		if _, resp := admitAt(t, hts.URL, float64(i), AdmitRequest{NumProc: 1, Runtime: 5, Deadline: 1000}); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d failed", i)
		}
	}
	s.mu.RLock()
	opsLen := len(s.ops)
	s.mu.RUnlock()
	if opsLen != 0 {
		t.Fatalf("kept %d ops in memory with no checkpoint to write them to", opsLen)
	}
	if got := s.OpsApplied(); got != n {
		t.Fatalf("OpsApplied = %d, want %d", got, n)
	}
}
