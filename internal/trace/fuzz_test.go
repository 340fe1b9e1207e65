package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzTraceJSON drives arbitrary bytes through ReadJSON, the reader
// cmd/projections loads DES and engine traces with. Reading must fail
// with an error or succeed, never panic, and any log it accepts must
// re-encode through WriteJSON to bytes that read back to the same
// records. Seeded from the golden trace files: this package's
// hand-written log, and the first record of each entry in the converse
// scheduler's execution log (whole, it is too long to minimize).
func FuzzTraceJSON(f *testing.F) {
	for _, path := range []string{"testdata/log.jsonl", "../converse/testdata/event_order.jsonl"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		l, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		seen := map[string]bool{}
		seed := NewLog()
		for _, r := range l.Records {
			if !seen[r.Entry] {
				seen[r.Entry] = true
				seed.Add(r)
			}
		}
		var buf bytes.Buffer
		if err := seed.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"pe":1,"obj":-1,"entry":"x","start":0,"end":1e-300,"spans":[]}` + "\n" + `{"spans":[{"cat":"pme","dur":-0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded log does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(l.Records, back.Records) {
			t.Fatalf("records changed through WriteJSON:\nread  %+v\nagain %+v", l.Records, back.Records)
		}
	})
}
