package ftdc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func randomSchema(rng *rand.Rand, nFields int) Schema {
	s := Schema{Version: SchemaVersion}
	for i := 0; i < nFields; i++ {
		k := Gauge
		if rng.Intn(2) == 0 {
			k = Counter
		}
		s.Fields = append(s.Fields, Field{Name: string(rune('a' + i%26)), Kind: k})
	}
	return s
}

// randomSeries generates adversarial series: smooth counters, counter
// resets (process restart), long zero runs, NaN/Inf, and raw random
// bit patterns.
func randomSeries(rng *rand.Rand, nFields, n int) []Sample {
	samples := make([]Sample, n)
	t := int64(1_700_000_000_000_000_000)
	counters := make([]float64, nFields)
	for i := range samples {
		t += int64(rng.Intn(2_000_000_000)) // irregular cadence incl. 0
		v := make([]float64, nFields)
		for f := 0; f < nFields; f++ {
			switch rng.Intn(6) {
			case 0: // smooth counter
				counters[f] += float64(rng.Intn(100))
				v[f] = counters[f]
			case 1: // counter reset
				counters[f] = 0
				v[f] = 0
			case 2: // zero run
				v[f] = 0
			case 3: // non-finite
				v[f] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			case 4: // arbitrary bits
				v[f] = math.Float64frombits(rng.Uint64())
			default: // plain gauge
				v[f] = rng.NormFloat64() * 1e6
			}
		}
		samples[i] = Sample{UnixNanos: t, Values: v}
	}
	return samples
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFTDCRoundTripProperty: Decode(Encode(series)) is bit-exact for
// random series including counter resets, zero runs, and NaN/Inf.
func TestFTDCRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nFields := 1 + rng.Intn(8)
		n := rng.Intn(700) // spans multiple chunks and the empty series
		schema := randomSchema(rng, nFields)
		in := randomSeries(rng, nFields, n)
		data, err := Encode(schema, in)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		gotSchema, out, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(out) != len(in) {
			t.Fatalf("trial %d: %d samples out, want %d", trial, len(out), len(in))
		}
		if n > 0 && gotSchema.NumFields() != nFields {
			t.Fatalf("trial %d: schema %d fields, want %d", trial, gotSchema.NumFields(), nFields)
		}
		for i := range in {
			if out[i].UnixNanos != in[i].UnixNanos {
				t.Fatalf("trial %d sample %d: t %d != %d", trial, i, out[i].UnixNanos, in[i].UnixNanos)
			}
			for f := range in[i].Values {
				if !sameBits(out[i].Values[f], in[i].Values[f]) {
					t.Fatalf("trial %d sample %d field %d: %x != %x", trial, i, f,
						math.Float64bits(out[i].Values[f]), math.Float64bits(in[i].Values[f]))
				}
			}
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte("not an ftdc file")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, _, err := Decode([]byte{'G'}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeCRCCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := randomSchema(rng, 3)
	data, err := Encode(schema, randomSeries(rng, 3, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte near the end.
	data[len(data)-3] ^= 0xff
	_, _, err = Decode(data)
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("corrupted chunk: err = %v, want ErrCorrupt or ErrUnexpectedEOF", err)
	}
}

func TestReaderTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	schema := randomSchema(rng, 2)
	s1 := randomSeries(rng, 2, chunkSamples) // exactly one full chunk
	s2 := randomSeries(rng, 2, 10)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(append([]Sample{}, s1...), s2...) {
		if err := w.Append(s.UnixNanos, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	torn := full[:len(full)-5] // cut mid-second-chunk
	r := NewReader(bytes.NewReader(torn))
	b1, err := r.Next()
	if err != nil || len(b1.Samples) != chunkSamples {
		t.Fatalf("first chunk: %v, %d samples", err, len(b1.Samples))
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail err = %v, want ErrUnexpectedEOF or ErrCorrupt", err)
	}
}

func TestRecoverFileTruncatesTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schema := randomSchema(rng, 3)
	series := randomSeries(rng, 3, chunkSamples+40)
	path := filepath.Join(t.TempDir(), "m.ftdc")
	fw, err := CreateFile(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if err := fw.Append(s.UnixNanos, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop 7 bytes off the second chunk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := RecoverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != chunkSamples {
		t.Fatalf("recovered %d samples, want %d", n, chunkSamples)
	}
	_, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != chunkSamples {
		t.Fatalf("post-recover read: %d samples, want %d", len(got), chunkSamples)
	}
	for i := range got {
		if got[i].UnixNanos != series[i].UnixNanos {
			t.Fatalf("sample %d timestamp mismatch after recovery", i)
		}
	}
}

func TestOpenFileAppendsAcrossSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	schema := randomSchema(rng, 2)
	series := randomSeries(rng, 2, 30)
	path := filepath.Join(t.TempDir(), "m.ftdc")
	fw, err := OpenFile(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series[:20] {
		fw.Append(s.UnixNanos, s.Values)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fw2, err := OpenFile(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series[20:] {
		fw2.Append(s.UnixNanos, s.Values)
	}
	if err := fw2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(series) {
		t.Fatalf("%d samples after append, want %d", len(got), len(series))
	}
	for i := range got {
		for f := range got[i].Values {
			if !sameBits(got[i].Values[f], series[i].Values[f]) {
				t.Fatalf("sample %d field %d mismatch across sessions", i, f)
			}
		}
	}
}

// TestJSONLRoundTrip: ReadAny decodes the NDJSON metrics stream gonamdd
// serves, built here byte for byte the way the server's metrics handler
// writes it — MarshalSchema's header line, then one AppendSampleJSON
// object per line into a reused buffer — with non-finite values in
// several fields, and recovers every value bit-exactly.
func TestJSONLRoundTrip(t *testing.T) {
	schema := EngineSchema()
	samples := make([]Sample, 3)
	for i := range samples {
		samples[i] = Sample{UnixNanos: int64(1000 * (i + 1)), Values: make([]float64, schema.NumFields())}
		for f := range samples[i].Values {
			samples[i].Values[f] = float64(i*schema.NumFields()+f) / 7
		}
	}
	samples[0].Values[FieldSteps] = 10
	samples[0].Values[FieldImbalance] = math.NaN()
	samples[1].Values[FieldSteps] = 20
	samples[1].Values[FieldStepsPerSec] = math.Inf(1)
	samples[1].Values[FieldImbalance] = math.Inf(-1)
	samples[2].Values[FieldStepsPerSec] = math.NaN()
	samples[2].Values[FieldImbalance] = math.Copysign(0, -1)

	hdr, err := MarshalSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(hdr, '\n')
	var buf []byte
	for _, smp := range samples {
		buf = AppendSampleJSON(buf[:0], schema, smp)
		buf = append(buf, '\n')
		stream = append(stream, buf...)
	}

	gotSchema, got, err := ReadAny(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSchema, schema) {
		t.Fatalf("schema %+v, want %+v", gotSchema, schema)
	}
	if len(got) != len(samples) {
		t.Fatalf("%d samples, want %d", len(got), len(samples))
	}
	for i := range got {
		if got[i].UnixNanos != samples[i].UnixNanos {
			t.Errorf("sample %d at %d ns, want %d", i, got[i].UnixNanos, samples[i].UnixNanos)
		}
		for f, v := range got[i].Values {
			if !sameBits(v, samples[i].Values[f]) {
				t.Errorf("sample %d field %s = %v, want %v", i, schema.Fields[f].Name, v, samples[i].Values[f])
			}
		}
	}
}

func TestReadAnySniffsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := randomSchema(rng, 4)
	in := randomSeries(rng, 4, 25)
	data, err := Encode(schema, in)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("%d samples, want %d", len(got), len(in))
	}
}

func TestSummarize(t *testing.T) {
	schema := Schema{Version: 1, Fields: []Field{
		{Name: "steps", Kind: Counter}, {Name: "imb", Kind: Gauge},
	}}
	samples := []Sample{
		{UnixNanos: 0, Values: []float64{0, 0.1}},
		{UnixNanos: 2e9, Values: []float64{100, 0.3}},
	}
	sum := Summarize(schema, samples)
	if sum[0].RatePerSec != 50 {
		t.Fatalf("counter rate = %v, want 50", sum[0].RatePerSec)
	}
	if sum[1].Min != 0.1 || sum[1].Max != 0.3 || sum[1].Last != 0.3 {
		t.Fatalf("gauge summary = %+v", sum[1])
	}
}
