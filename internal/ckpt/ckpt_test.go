package ckpt

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// writeSample encodes a small two-section checkpoint exercising every
// token type and returns its text.
func writeSample(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("clock")
	e.Put("slot", Uint(12345), Bool(true))
	e.End("clock")
	e.Begin("stats")
	e.Put("run", Uint(3), Float(1.5), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)))
	e.Begin("nested")
	e.Put("label", Quote(`hello "quoted" world`), Int(-42))
	e.Put("empty-rec")
	e.End("nested")
	e.End("stats")
	if err := e.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.String()
}

func TestRoundTrip(t *testing.T) {
	text := writeSample(t)
	d, err := NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Begin("clock")
	r := d.Record("slot")
	if got := r.Uint(); got != 12345 {
		t.Errorf("slot: %d", got)
	}
	if !r.Bool() {
		t.Error("bool field")
	}
	r.Done()
	d.End("clock")
	d.Begin("stats")
	r = d.Record("run")
	if n := r.Uint(); n != 3 {
		t.Errorf("n: %d", n)
	}
	if v := r.Float(); v != 1.5 {
		t.Errorf("float: %v", v)
	}
	if v := r.Float(); v != 0 || !math.Signbit(v) {
		t.Errorf("negative zero lost: %v signbit=%v", v, math.Signbit(v))
	}
	if v := r.Float(); !math.IsNaN(v) {
		t.Errorf("NaN lost: %v", v)
	}
	if v := r.Float(); !math.IsInf(v, 1) {
		t.Errorf("+Inf lost: %v", v)
	}
	r.Done()
	d.Begin("nested")
	r = d.Record("label")
	if s := r.Str(); s != `hello "quoted" world` {
		t.Errorf("string: %q", s)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("int: %d", v)
	}
	r.Done()
	d.Record("empty-rec").Done()
	d.End("nested")
	d.End("stats")
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFloatBitExactness(t *testing.T) {
	vals := []float64{0, -0.0, 1e-308, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3.0,
		math.Pi, -math.Pi, math.Inf(-1)}
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("f")
	for _, v := range vals {
		e.Put("v", Float(v))
	}
	e.End("f")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("f")
	for i, v := range vals {
		got := d.Record("v").Float()
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("value %d: %x round-tripped to %x", i, math.Float64bits(v), math.Float64bits(got))
		}
	}
	d.End("f")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	if writeSample(t) != writeSample(t) {
		t.Fatal("identical encodes produced different bytes")
	}
}

func TestVariableLengthLoop(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("items")
	for i := 0; i < 5; i++ {
		e.Put("item", Int(int64(i)))
	}
	e.End("items")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("items")
	var got []int64
	for !d.AtEnd("items") {
		if k := d.PeekKey(); k != "item" {
			t.Fatalf("PeekKey: %q", k)
		}
		got = append(got, d.Record("item").Int())
	}
	d.End("items")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("items: %v", got)
	}
}

// TestCorruptionRejection damages a valid checkpoint in every structural
// way a file can rot and requires each to be rejected — the strictness
// contract every reader of the container, checkpoints and traces alike,
// relies on.
func TestCorruptionRejection(t *testing.T) {
	good := writeSample(t)
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	// consume walks the whole sample stream the way a real reader would.
	consume := func(text string) error {
		d, err := NewDecoder(strings.NewReader(text))
		if err != nil {
			return err
		}
		d.Begin("clock")
		r := d.Record("slot")
		_, _ = r.Uint(), r.Bool()
		r.Done()
		d.End("clock")
		d.Begin("stats")
		r = d.Record("run")
		_, _, _, _, _ = r.Uint(), r.Float(), r.Float(), r.Float(), r.Float()
		r.Done()
		d.Begin("nested")
		r = d.Record("label")
		_, _ = r.Str(), r.Int()
		r.Done()
		d.Record("empty-rec").Done()
		d.End("nested")
		d.End("stats")
		return d.Close()
	}
	if err := consume(good); err != nil {
		t.Fatalf("control: valid checkpoint rejected: %v", err)
	}

	body, sum, _ := strings.Cut(good, "checksum ")
	sum = strings.TrimSuffix(sum, "\n")
	if strings.ToUpper(sum) == sum {
		t.Fatalf("sample checksum %s has no hex letter to upper-case", sum)
	}
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"wrong magic", strings.Replace(good, "osmosis-ckpt", "osmosis-nope", 1)},
		{"future version", strings.Replace(good, "osmosis-ckpt v2", "osmosis-ckpt v3", 1)},
		{"retired version", strings.Replace(good, "osmosis-ckpt v2", "osmosis-ckpt v1", 1)},
		{"truncated mid-file", strings.Join(lines[:4], "\n") + "\n"},
		{"missing trailer", strings.Join(lines[:len(lines)-1], "\n") + "\n"},
		{"no final newline", strings.TrimSuffix(good, "\n")},
		{"flipped value bit", strings.Replace(good, "12345", "12344", 1)},
		{"edited then stale checksum", strings.Replace(good, "slot 12345", "slot 99999", 1)},
		{"malformed checksum", body + "checksum zzzz\n"},
		{"uppercase checksum", body + "checksum " + strings.ToUpper(sum) + "\n"},
		{"spaced checksum", body + "checksum  " + sum + "\n"},
		{"trailing garbage", good + "extra\n"},
		{"reordered records", swapLines(good, 2, 4)},
		{"duplicated record", strings.Replace(good, "begin stats\n", "begin stats\nbegin stats\n", 1)},
		{"crlf line ending", strings.Replace(good, "begin clock\n", "begin clock\r\n", 1)},
		{"non-numeric field", strings.Replace(good, "slot 12345", "slot abc", 1)},
		{"boolean out of range", strings.Replace(good, "slot 12345 1", "slot 12345 2", 1)},
		{"missing field", strings.Replace(good, "slot 12345 1", "slot 12345", 1)},
		{"extra field", strings.Replace(good, "slot 12345 1", "slot 12345 1 7", 1)},
	}
	for _, tc := range cases {
		// Every case damages the bytes under the checksum or the
		// framing around it, so NewDecoder refuses it before any record.
		if _, err := NewDecoder(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: corruption passed NewDecoder", tc.name)
		}
	}

	// Tokens that parse but are not what Encoder writes, behind a valid
	// checksum: accepting one would break re-encoding byte for byte.
	if err := consume(resum(good)); err != nil {
		t.Fatalf("control: re-checksummed checkpoint rejected: %v", err)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"signed unsigned", "slot 12345", "slot +12345"},
		{"leading zero", "slot 12345", "slot 012345"},
		{"doubled space", "slot 12345", "slot  12345"},
		{"trailing space", "empty-rec\n", "empty-rec \n"},
		{"decimal float", Float(1.5), "1.5"},
		{"lowercase nan", "NaN", "nan"},
		{"padded int", "-42", "-042"},
		{"escaped letter", `"hello`, `"\x68ello`},
	} {
		forged := resum(strings.Replace(good, tc.old, tc.new, 1))
		// NewDecoder reads no record: the walk is what refuses these.
		if _, err := NewDecoder(strings.NewReader(forged)); err != nil {
			t.Errorf("%s: NewDecoder rejected a re-checksummed file: %v", tc.name, err)
		}
		if err := consume(forged); err == nil {
			t.Errorf("%s: non-canonical token accepted", tc.name)
		}
	}
}

// TestChecksumIsFNV1a: the trailer the encoder writes, folding each
// line in place, is hash/fnv's FNV-1a 64 over every byte before it, so
// checkpoints from builds that hashed through hash/fnv still verify.
func TestChecksumIsFNV1a(t *testing.T) {
	text := writeSample(t)
	if got := resum(text); got != text {
		t.Fatalf("encoder trailer differs from hash/fnv's:\n%s\nwant\n%s", text, got)
	}
}

// resum replaces text's checksum trailer with the one its body hashes
// to, so an edit reaches the token parsers instead of the checksum.
func resum(text string) string {
	body := text[:strings.LastIndex(text, "checksum ")]
	h := fnv.New64a()
	_, _ = h.Write([]byte(body))
	return fmt.Sprintf("%schecksum %016x\n", body, h.Sum64())
}

// swapLines exchanges two (0-based) line indices of text.
func swapLines(text string, i, j int) string {
	ls := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	ls[i], ls[j] = ls[j], ls[i]
	return strings.Join(ls, "\n") + "\n"
}

func TestEncoderRejectsBadStructure(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("a")
	e.End("b") // mismatched
	if e.Close() == nil {
		t.Error("mismatched End accepted")
	}

	e = NewEncoder(&b)
	e.Begin("open")
	if e.Close() == nil {
		t.Error("Close with open section accepted")
	}

	e = NewEncoder(&b)
	e.Put("bad key!")
	if e.Close() == nil {
		t.Error("invalid key accepted")
	}

	e = NewEncoder(&b)
	e.Put("k", "two tokens")
	if e.Close() == nil {
		t.Error("raw space in field accepted")
	}
}

func TestQuoteNeverEmitsSeparators(t *testing.T) {
	for _, s := range []string{"", "a b", " lead", "trail ", "tab\tchar", "nl\nchar", `q"uote`, "json: {\"a\": 1, \"b c\": [2, 3]}"} {
		tok := Quote(s)
		if strings.ContainsAny(tok, " \t\r\n") {
			t.Errorf("Quote(%q) = %q contains separators", s, tok)
		}
		var b strings.Builder
		e := NewEncoder(&b)
		e.Begin("s")
		e.Put("v", tok)
		e.End("s")
		if err := e.Close(); err != nil {
			t.Fatalf("Quote(%q): encode: %v", s, err)
		}
		d, err := NewDecoder(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		d.Begin("s")
		if got := d.Record("v").Str(); got != s {
			t.Errorf("Quote round-trip: %q -> %q", s, got)
		}
		d.End("s")
		if err := d.Close(); err != nil {
			t.Fatalf("Quote(%q): decode close: %v", s, err)
		}
	}
}

// TestCloseRequiresEveryLine: a reader that stops before the trailer
// has not restored what the file holds, so Close refuses.
func TestCloseRequiresEveryLine(t *testing.T) {
	d, err := NewDecoder(strings.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("clock")
	r := d.Record("slot")
	_, _ = r.Uint(), r.Bool()
	d.End("clock")
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "begin stats") {
		t.Errorf("Close with the stats section unread: %v", err)
	}
}

func TestDecoderLatchedError(t *testing.T) {
	d, err := NewDecoder(strings.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("wrong")
	first := d.Err()
	if first == nil {
		t.Fatal("wrong section accepted")
	}
	// Every later call is a no-op: the first error stays the one
	// reported, and reads return zero values.
	d.Begin("clock")
	r := d.Record("slot")
	if v := r.Uint(); v != 0 {
		t.Errorf("read after an error returned %d", v)
	}
	r.Done()
	d.Fail(errors.New("a later check"))
	d.End("clock")
	if err := d.Close(); err != first {
		t.Errorf("Close reported %v, want the first error %v", err, first)
	}
	if !strings.Contains(first.Error(), "line 2:") {
		t.Errorf("error %q does not name line 2", first)
	}
}

// TestErrorsNameTheLine: every decode error names the file line it was
// found on, including a caller's check latched through Fail; a nil Fail
// latches nothing.
func TestErrorsNameTheLine(t *testing.T) {
	text := writeSample(t) // line 3 is "slot 12345 1", line 6 "run ..."
	for _, tc := range []struct {
		name string
		walk func(d *Decoder)
		want string
	}{
		{"wrong key", func(d *Decoder) { d.Begin("clock"); d.Record("tick") }, `line 3: want record "tick"`},
		{"bad field", func(d *Decoder) { d.Begin("clock"); r := d.Record("slot"); r.Uint(); r.Float() }, `line 3: record "slot" field 2`},
		{"trailing field", func(d *Decoder) { d.Begin("clock"); d.Record("slot").Done() }, `line 3: record "slot": 2 trailing fields`},
		{"caller check", func(d *Decoder) {
			d.Begin("clock")
			d.Fail(nil)
			d.Record("slot")
			d.Fail(errors.New("slot disagrees"))
		}, "line 3: slot disagrees"},
		{"wrong end", func(d *Decoder) { d.Begin("clock"); d.Record("slot"); d.End("stats") }, `line 4: End("stats")`},
		{"unread line", func(d *Decoder) { d.Begin("clock"); d.Record("slot"); d.End("clock") }, `line 5: unread line "begin stats"`},
	} {
		d, err := NewDecoder(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		tc.walk(d)
		if err := d.Close(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestBoundedReads: IntIn, UintIn and Count check the full token
// against their range, latch an error outside it and return the low
// end, as they do after any earlier error.
func TestBoundedReads(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("b")
	e.Put("v", Int(-1), Int(7), Uint(1<<32), Uint(3))
	e.Put("n", Uint(2))
	e.Put("n", Uint(3))
	e.End("b")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *Decoder {
		d, err := NewDecoder(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		d.Begin("b")
		return d
	}

	d := open()
	r := d.Record("v")
	if a, c := r.IntIn(-1, 0), r.IntIn(0, 8); a != -1 || c != 7 {
		t.Errorf("in-range IntIn: %d %d", a, c)
	}
	if v := r.UintIn(0, 1<<33); v != 1<<32 {
		t.Errorf("in-range UintIn: %d", v)
	}
	if v := r.UintIn(3, 4); v != 3 {
		t.Errorf("in-range UintIn: %d", v)
	}
	r.Done()
	// "n 2" is line 4; lines 5 and 6 come before the trailer.
	if n := d.Record("n").Count(); n != 2 || d.Err() != nil {
		t.Errorf("Count of 2 with 2 lines left: %d, %v", n, d.Err())
	}

	for _, tc := range []struct {
		name string
		read func(r *Rec) int64
		want string
		low  int64
	}{
		{"negative below range", func(r *Rec) int64 { return int64(r.IntIn(0, 8)) }, "-1 out of [0,8)", 0},
		{"upper bound is open", func(r *Rec) int64 { r.Int(); return int64(r.IntIn(2, 7)) }, "7 out of [2,7)", 2},
		{"no narrowing first", func(r *Rec) int64 { r.Int(); r.Int(); return int64(r.UintIn(5, 1<<31)) }, "4294967296 out of [5,2147483648)", 5},
	} {
		d := open()
		if got := tc.read(d.Record("v")); got != tc.low {
			t.Errorf("%s: returned %d, want the low end %d", tc.name, got, tc.low)
		}
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		// After the error, every bounded read yields its low end.
		if v := d.Record("n").IntIn(4, 9); v != 4 {
			t.Errorf("%s: IntIn after an error returned %d", tc.name, v)
		}
	}

	d = open()
	d.Record("v")
	d.Record("n")
	// "n 3" is line 5: only "end b" comes before the trailer.
	if n := d.Record("n").Count(); n != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "3 out of [0,2)") {
		t.Errorf("Count of 3 with 1 line left: %d, %v", n, d.Err())
	}
}
