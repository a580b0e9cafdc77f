package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"clustersched/internal/obs/span"
)

// FuzzIngest feeds arbitrary bytes through servetrace's ingest: readSpans
// on a file holding them, then report over whatever spans it returned.
// Neither may panic; readSpans returns an error or spans, never both.
func FuzzIngest(f *testing.F) {
	payload, err := json.Marshal(span.Payload{Enabled: true, Spans: sampleSpans()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	var jsonl []byte
	for _, sp := range sampleSpans() {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		jsonl = append(append(jsonl, b...), '\n')
	}
	f.Add(jsonl)
	for _, s := range []string{
		"", " \n\t", "[]", "{}", `{"enabled":false}`, `{"outcome":"x"}` + "\n{", `{"outcome":"x","stages":{"prep":-1,"queue":1e308}}`,
		`{"spans":[{"total_s":0,"stages":{}}],"slowest_total":null}`, "\xef\xbb\xbf{}",
	} {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "spans")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spans, err := readSpans(path)
		if err != nil {
			if spans != nil {
				t.Fatalf("readSpans returned %d spans with error %v", len(spans), err)
			}
			return
		}
		report(io.Discard, spans, len(spans), 5)
	})
}
