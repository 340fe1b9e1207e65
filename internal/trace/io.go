package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonRecord is the serialized form of an ExecRecord (JSON Lines).
type jsonRecord struct {
	PE    int32      `json:"pe"`
	Obj   int32      `json:"obj"`
	Entry string     `json:"entry"`
	Start float64    `json:"start"`
	End   float64    `json:"end"`
	Spans []jsonSpan `json:"spans,omitempty"`
}

type jsonSpan struct {
	Cat string  `json:"cat"`
	Dur float64 `json:"dur"`
}

// ParseCategory inverts Category.String.
func ParseCategory(s string) (Category, error) {
	for c := Category(0); c < numCategories; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown category %q", s)
}

// WriteJSON streams the log as JSON Lines (one record per line), the
// analogue of Projections writing its event logs at program end.
func (l *Log) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range l.Records {
		jr := jsonRecord{PE: r.PE, Obj: r.Obj, Entry: r.Entry, Start: r.Start, End: r.End}
		for _, sp := range r.Spans {
			jr.Spans = append(jr.Spans, jsonSpan{Cat: sp.Cat.String(), Dur: sp.Dur})
		}
		if err := enc.Encode(&jr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPE bounds the processor index a trace file may name: analysis keeps
// per-PE tables, so one record naming PE 2³¹−1 would otherwise cost
// gigabytes. 65,536 is well above ASCI-Red's 9,536 processors.
const maxPE = 1 << 16

// ScanJSON streams a JSON Lines trace to fn one record at a time,
// without materializing the whole log — the path internal/projections
// uses to analyze saved trace files of arbitrary size. A record whose PE
// is negative or at least 65,536 is an error naming the record. Scanning
// stops at the first error fn returns.
func ScanJSON(r io.Reader, fn func(ExecRecord) error) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	for n := 0; ; n++ {
		var jr jsonRecord
		if err := dec.Decode(&jr); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("trace: decoding record %d: %w", n, err)
		}
		if jr.PE < 0 || jr.PE >= maxPE {
			return fmt.Errorf("trace: record %d (entry %q): pe %d out of range [0, %d)", n, jr.Entry, jr.PE, maxPE)
		}
		rec := ExecRecord{PE: jr.PE, Obj: jr.Obj, Entry: jr.Entry, Start: jr.Start, End: jr.End}
		for _, sp := range jr.Spans {
			cat, err := ParseCategory(sp.Cat)
			if err != nil {
				return err
			}
			rec.Spans = append(rec.Spans, Span{Cat: cat, Dur: sp.Dur})
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// ReadJSON loads a log written by WriteJSON.
func ReadJSON(r io.Reader) (*Log, error) {
	l := NewLog()
	err := ScanJSON(r, func(rec ExecRecord) error {
		l.Records = append(l.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}
