package ckpt

import (
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
	if err := d.Begin("clock"); err != nil {
		t.Fatalf("Begin clock: %v", err)
	}
	r := d.Record("slot")
	if got := r.Uint(); got != 12345 {
		t.Errorf("slot: %d", got)
	}
	if !r.Bool() {
		t.Error("bool field")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("slot Done: %v", err)
	}
	if err := d.End("clock"); err != nil {
		t.Fatalf("End clock: %v", err)
	}
	if err := d.Begin("stats"); err != nil {
		t.Fatalf("Begin stats: %v", err)
	}
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
	if err := r.Done(); err != nil {
		t.Fatalf("run Done: %v", err)
	}
	if err := d.Begin("nested"); err != nil {
		t.Fatalf("Begin nested: %v", err)
	}
	r = d.Record("label")
	if s := r.Str(); s != `hello "quoted" world` {
		t.Errorf("string: %q", s)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("int: %d", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("label Done: %v", err)
	}
	if err := d.Record("empty-rec").Done(); err != nil {
		t.Fatalf("empty record: %v", err)
	}
	if err := d.End("nested"); err != nil {
		t.Fatalf("End nested: %v", err)
	}
	if err := d.End("stats"); err != nil {
		t.Fatalf("End stats: %v", err)
	}
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
	if err := d.Begin("f"); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got := d.Record("v").Float()
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("value %d: %x round-tripped to %x", i, math.Float64bits(v), math.Float64bits(got))
		}
	}
	if err := d.End("f"); err != nil {
		t.Fatal(err)
	}
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
	if err := d.Begin("items"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for !d.AtEnd("items") {
		if k := d.PeekKey(); k != "item" {
			t.Fatalf("PeekKey: %q", k)
		}
		got = append(got, d.Record("item").Int())
	}
	if err := d.End("items"); err != nil {
		t.Fatal(err)
	}
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
		if err := d.Begin("clock"); err != nil {
			return err
		}
		r := d.Record("slot")
		_, _ = r.Uint(), r.Bool()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.End("clock"); err != nil {
			return err
		}
		if err := d.Begin("stats"); err != nil {
			return err
		}
		r = d.Record("run")
		_, _, _, _, _ = r.Uint(), r.Float(), r.Float(), r.Float(), r.Float()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.Begin("nested"); err != nil {
			return err
		}
		r = d.Record("label")
		_, _ = r.Str(), r.Int()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.Record("empty-rec").Done(); err != nil {
			return err
		}
		if err := d.End("nested"); err != nil {
			return err
		}
		if err := d.End("stats"); err != nil {
			return err
		}
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
		if err := d.Begin("s"); err != nil {
			t.Fatal(err)
		}
		if got := d.Record("v").Str(); got != s {
			t.Errorf("Quote round-trip: %q -> %q", s, got)
		}
		if err := d.End("s"); err != nil {
			t.Fatal(err)
		}
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
	_ = d.Begin("clock")
	r := d.Record("slot")
	_, _ = r.Uint(), r.Bool()
	if err := d.End("clock"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "begin stats") {
		t.Errorf("Close with the stats section unread: %v", err)
	}
}

func TestDecoderLatchedError(t *testing.T) {
	d, err := NewDecoder(strings.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin("wrong"); err == nil {
		t.Fatal("wrong section accepted")
	}
	// Every later call reports the same latched error.
	if err := d.Begin("clock"); err == nil {
		t.Error("error did not latch on Begin")
	}
	if d.Record("slot"); d.Err() == nil {
		t.Error("error did not latch on Record")
	}
	if err := d.Close(); err == nil {
		t.Error("error did not latch on Close")
	}
}
