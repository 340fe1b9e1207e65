package ftdc

// JSONL fallback format and the NDJSON sample encoding shared with the
// gonamdd metrics stream: line one is the schema object, every
// following line is one sample. encoding/json cannot represent
// non-finite floats, so NaN and ±Inf are written as the quoted strings
// "NaN", "+Inf", "-Inf" — the decoder maps them back, keeping the
// JSONL path value-exact too.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

type schemaLine struct {
	Schema *Schema `json:"schema"`
}

// MarshalSchema renders the schema header line (no trailing newline).
func MarshalSchema(s Schema) ([]byte, error) {
	return json.Marshal(schemaLine{Schema: &s})
}

// AppendSampleJSON appends one sample's JSON object (no trailing
// newline) to buf. Field names come from schema; non-finite values
// become quoted strings.
func AppendSampleJSON(buf []byte, schema Schema, s Sample) []byte {
	buf = append(buf, `{"t_unix_ns":`...)
	buf = strconv.AppendInt(buf, s.UnixNanos, 10)
	for i, f := range schema.Fields {
		if i >= len(s.Values) {
			break
		}
		buf = append(buf, ',', '"')
		buf = append(buf, f.Name...)
		buf = append(buf, '"', ':')
		buf = appendJSONValue(buf, s.Values[i])
	}
	return append(buf, '}')
}

func appendJSONValue(buf []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(buf, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(buf, `"-Inf"`...)
	default:
		return strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
}

// ReadJSONL parses a JSONL metrics stream (schema line + sample lines).
func ReadJSONL(r io.Reader) (Schema, []Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Schema{}, nil, err
		}
		return Schema{}, nil, io.ErrUnexpectedEOF
	}
	var hdr schemaLine
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Schema == nil {
		return Schema{}, nil, fmt.Errorf("ftdc: bad jsonl schema line: %v", err)
	}
	schema := *hdr.Schema
	var samples []Sample
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return schema, samples, fmt.Errorf("ftdc: bad jsonl sample: %v", err)
		}
		s := Sample{Values: make([]float64, schema.NumFields())}
		if t, ok := obj["t_unix_ns"].(float64); ok {
			s.UnixNanos = int64(t)
		}
		for i, f := range schema.Fields {
			s.Values[i] = jsonValue(obj[f.Name])
		}
		samples = append(samples, s)
	}
	return schema, samples, sc.Err()
}

func jsonValue(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case string:
		switch x {
		case "NaN":
			return math.NaN()
		case "+Inf":
			return math.Inf(1)
		case "-Inf":
			return math.Inf(-1)
		}
	}
	return 0
}

// ReadAny decodes either on-disk representation, sniffing the binary
// magic versus a JSONL '{' first byte.
func ReadAny(r io.Reader) (Schema, []Sample, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(1)
	if err != nil {
		return Schema{}, nil, err
	}
	if head[0] == magic[0] {
		rd := &Reader{br: br}
		var schema Schema
		var samples []Sample
		for {
			b, err := rd.Next()
			if err == io.EOF {
				return schema, samples, nil
			}
			if err != nil {
				if len(samples) > 0 {
					return schema, samples, nil
				}
				return schema, samples, err
			}
			schema = b.Schema
			samples = append(samples, b.Samples...)
		}
	}
	return ReadJSONL(br)
}
