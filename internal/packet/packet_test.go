package packet

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseFormat(t *testing.T) {
	cases := []struct {
		format string
		want   []Directive
		ok     bool
	}{
		{"", nil, true},
		{"   ", nil, true},
		{"%d", []Directive{DirInt}, true},
		{"%d %f %s", []Directive{DirInt, DirFloat, DirString}, true},
		{"%c %ac %ad %af %as", []Directive{DirByte, DirByteArray, DirIntArray, DirFloatArray, DirStringArray}, true},
		{"%x", nil, false},
		{"%d %", nil, false},
		{"%dd", nil, false},
		{"d", nil, false},
	}
	for _, c := range cases {
		got, err := ParseFormat(c.format)
		if c.ok && err != nil {
			t.Errorf("ParseFormat(%q): unexpected error %v", c.format, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseFormat(%q): want error, got %v", c.format, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFormat(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(100, 1, 0, "%d", "not an int"); err == nil {
		t.Error("New with mismatched type: want error")
	}
	if _, err := New(100, 1, 0, "%d %d", int64(1)); err == nil {
		t.Error("New with wrong arity: want error")
	}
	if _, err := New(100, 1, 0, "%z", int64(1)); err == nil {
		t.Error("New with bad format: want error")
	}
	p, err := New(100, 1, 0, "%d %f %s", 42, 3.5, "hi")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if v, _ := p.Int(0); v != 42 {
		t.Errorf("Int(0) = %d, want 42", v)
	}
	if v, _ := p.Float(1); v != 3.5 {
		t.Errorf("Float(1) = %g, want 3.5", v)
	}
	if v, _ := p.Str(2); v != "hi" {
		t.Errorf("Str(2) = %q, want hi", v)
	}
}

func TestCoercions(t *testing.T) {
	p := MustNew(100, 0, 0, "%d %d %d %f %f %c %ad",
		int32(7), uint32(8), Rank(9), float32(1.5), 2, 200, []int{1, 2, 3})
	wantInts := []int64{7, 8, 9}
	for i, w := range wantInts {
		if v, err := p.Int(i); err != nil || v != w {
			t.Errorf("Int(%d) = %d, %v; want %d", i, v, err, w)
		}
	}
	if v, _ := p.Float(3); v != 1.5 {
		t.Errorf("Float(3) = %g, want 1.5", v)
	}
	if v, _ := p.Float(4); v != 2 {
		t.Errorf("Float(4) = %g, want 2", v)
	}
	if v, _ := p.Byte(5); v != 200 {
		t.Errorf("Byte(5) = %d, want 200", v)
	}
	xs, err := p.IntArray(6)
	if err != nil || !reflect.DeepEqual(xs, []int64{1, 2, 3}) {
		t.Errorf("IntArray(6) = %v, %v", xs, err)
	}
}

func TestByteCoercionRange(t *testing.T) {
	if _, err := New(100, 0, 0, "%c", 256); err == nil {
		t.Error("byte coercion of 256: want error")
	}
	if _, err := New(100, 0, 0, "%c", -1); err == nil {
		t.Error("byte coercion of -1: want error")
	}
}

func TestAccessorTypeChecks(t *testing.T) {
	p := MustNew(100, 0, 0, "%d %s", int64(1), "x")
	if _, err := p.Float(0); err == nil {
		t.Error("Float on int value: want error")
	}
	if _, err := p.Int(1); err == nil {
		t.Error("Int on string value: want error")
	}
	if _, err := p.Int(5); err == nil {
		t.Error("Int out of range: want error")
	}
	if _, err := p.Int(-1); err == nil {
		t.Error("Int(-1): want error")
	}
}

func TestWithStreamAndSrc(t *testing.T) {
	p := MustNew(100, 1, 2, "%d", int64(5))
	q := p.WithStream(9).WithSrc(4)
	if q.StreamID != 9 || q.SrcRank != 4 {
		t.Errorf("got stream=%d src=%d", q.StreamID, q.SrcRank)
	}
	if p.StreamID != 1 || p.SrcRank != 2 {
		t.Error("WithStream/WithSrc mutated the original")
	}
	if v, _ := q.Int(0); v != 5 {
		t.Error("payload not shared")
	}
}

// WithSrc returns a copy of the packet with a new source rank, sharing the
// payload. The engine restamps a hop's stream and source together
// (WithStreamSrc); only the tests restamp the source alone.
func (p *Packet) WithSrc(r Rank) *Packet { return p.WithStreamSrc(p.StreamID, r) }

func TestStringRendering(t *testing.T) {
	p := MustNew(100, 1, 2, "%d %s", int64(5), "abc")
	s := p.String()
	for _, want := range []string{"tag=100", "stream=1", "src=2", "5", "abc"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	enc := p.Encode()
	if len(enc) != p.EncodedSize() {
		t.Errorf("EncodedSize = %d, Encode produced %d bytes", p.EncodedSize(), len(enc))
	}
	q, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return q
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*Packet{
		MustNew(100, 0, 0, ""),
		MustNew(101, 7, 3, "%d", int64(-12345)),
		MustNew(102, 7, 3, "%f", 3.14159),
		MustNew(103, 7, 3, "%s", ""),
		MustNew(104, 7, 3, "%s", "hello world"),
		MustNew(105, 7, 3, "%c", byte(0xFF)),
		MustNew(106, 7, 3, "%ac", []byte{1, 2, 3}),
		MustNew(107, 7, 3, "%ad", []int64{}),
		MustNew(108, 7, 3, "%ad", []int64{-1, 0, 1 << 62}),
		MustNew(109, 7, 3, "%af", []float64{-0.5, 1e300}),
		MustNew(110, 7, 3, "%as", []string{"a", "", "ccc"}),
		MustNew(111, 9, UnknownRank, "%d %f %s %ad %af %as %c %ac",
			int64(1), 2.0, "three", []int64{4}, []float64{5}, []string{"six"}, byte(7), []byte{8}),
	}
	for _, p := range cases {
		q := roundTrip(t, p)
		if q.Tag != p.Tag || q.StreamID != p.StreamID || q.SrcRank != p.SrcRank || q.Format() != p.Format() {
			t.Errorf("header mismatch: got %v want %v", q, p)
		}
		if !reflect.DeepEqual(normalize(q.Values()), normalize(p.Values())) {
			t.Errorf("payload mismatch: got %v want %v", q.Values(), p.Values())
		}
	}
}

// normalize maps empty slices and nil to a comparable form.
func normalize(vs []any) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case []byte:
			if len(x) == 0 {
				out[i] = []byte{}
				continue
			}
		case []int64:
			if len(x) == 0 {
				out[i] = []int64{}
				continue
			}
		case []float64:
			if len(x) == 0 {
				out[i] = []float64{}
				continue
			}
		case []string:
			if len(x) == 0 {
				out[i] = []string{}
				continue
			}
		}
		out[i] = v
	}
	return out
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := MustNew(100, 1, 2, "%d %s %af", int64(7), "hello", []float64{1, 2, 3})
	enc := p.Encode()

	// Truncation at every byte boundary must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Errorf("Decode of %d-byte truncation: want error", n)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, enc...), 0xAB)); err == nil {
		t.Error("Decode with trailing byte: want error")
	}
	// Bad magic.
	bad := append([]byte{}, enc...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("Decode with bad magic: want error")
	}
	// Bad version.
	bad = append([]byte{}, enc...)
	bad[2] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("Decode with bad version: want error")
	}
}

func TestDecodeHugeArrayCount(t *testing.T) {
	// A corrupt element count must be rejected before allocation.
	p := MustNew(100, 1, 2, "%ad", []int64{1})
	enc := p.Encode()
	// The array count is the 4 bytes right after the header+format.
	hdr := 2 + 1 + 4 + 4 + 4 + 2 + len(p.Format())
	enc[hdr] = 0xFF
	enc[hdr+1] = 0xFF
	enc[hdr+2] = 0xFF
	enc[hdr+3] = 0x7F
	if _, err := Decode(enc); err == nil {
		t.Error("Decode with huge array count: want error")
	}
}

// Property: every packet built from generated payloads round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, xs []int64, fs []float64, ss []string, bs []byte) bool {
		p, err := New(200, 3, 5, "%d %f %s %ad %af %as %ac", i, fl, s, xs, fs, ss, bs)
		if err != nil {
			return false
		}
		q, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(q.Values()), normalize(p.Values()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EncodedSize always equals len(Encode()).
func TestQuickEncodedSize(t *testing.T) {
	f := func(s string, xs []float64, ss []string) bool {
		p, err := New(1, 2, 3, "%s %af %as", s, xs, ss)
		if err != nil {
			return false
		}
		return p.EncodedSize() == len(p.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := MustNew(100, 1, 2, "%d %s %af", int64(7), "hello", make([]float64, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Encode()
	}
}

// BenchmarkNew is what building one leaf packet costs; CI holds it to 1
// alloc/op (the Packet and its 8-byte payload in one object).
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = MustNew(100, 1, 2, "%d", int64(i)+1000)
	}
}

var benchSink *Packet

func BenchmarkDecode(b *testing.B) {
	p := MustNew(100, 1, 2, "%d %s %af", int64(7), "hello", make([]float64, 256))
	enc := p.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p // kept, as a receiver keeps it: a discarded one may live on the stack
	}
}
