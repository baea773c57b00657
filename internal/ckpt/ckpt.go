// Package ckpt implements the versioned "osmosis-ckpt v1" checkpoint
// format: a line-oriented ASCII container for simulator state snapshots.
// A checkpoint taken at slot T and restored must reproduce the
// uninterrupted run bit for bit, so the format is exact (float64 values
// round-trip through hexadecimal notation), ordered (records decode in
// the same fixed order they were encoded — there is no random access and
// no optional-field skipping), and strict (any structural damage —
// truncation, reordering, edits, bit flips — is rejected, mirroring the
// osmosis-trace v1 contract).
//
// Layout:
//
//	osmosis-ckpt v1
//	begin <section>
//	<key> <field> <field> ...
//	end <section>
//	...
//	checksum <16 hex digits>
//
// Sections nest. Every record line is a key followed by space-separated
// typed tokens: unsigned and signed integers in decimal, booleans as 0/1,
// float64 in Go hexadecimal-float notation ('x' format, exact), strings
// Go-quoted. The trailing checksum line carries the FNV-1a 64-bit hash of
// every byte that precedes it; Decoder.Close verifies it and rejects
// trailing garbage.
//
// Both Encoder and Decoder latch their first error: after a failure every
// later call is a no-op (Encoder) or returns the same error (Decoder), so
// call sites chain reads and writes without per-line checks and inspect
// the error once, at Close.
package ckpt

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
)

// Version is the checkpoint format version this package reads and writes.
const Version = 1

// magic opens every checkpoint file.
const magic = "osmosis-ckpt"

// header is the exact first line of a version-1 checkpoint.
const header = magic + " v1"

// Encoder writes a checkpoint stream. Errors latch: after the first
// write failure all later calls are no-ops and Close reports the error.
type Encoder struct {
	w        *bufio.Writer
	hash     func(s string) // folds every written byte into the checksum
	sum      interface{ Sum64() uint64 }
	sections []string
	err      error
}

// NewEncoder starts a version-1 checkpoint on w and writes the header.
func NewEncoder(w io.Writer) *Encoder {
	h := fnv.New64a()
	e := &Encoder{w: bufio.NewWriter(w), sum: h}
	e.hash = func(s string) {
		// FNV-1a over a string never fails; hash.Hash documents Write as
		// error-free.
		_, _ = io.WriteString(h, s)
	}
	e.line(header)
	return e
}

// line writes one raw line and folds it into the checksum.
func (e *Encoder) line(s string) {
	if e.err != nil {
		return
	}
	e.hash(s)
	e.hash("\n")
	if _, err := e.w.WriteString(s); err != nil {
		e.err = err
		return
	}
	e.err = e.w.WriteByte('\n')
}

// Begin opens a section. Sections must be closed in LIFO order by End.
func (e *Encoder) Begin(section string) {
	if e.err != nil {
		return
	}
	if !validName(section) {
		e.err = fmt.Errorf("ckpt: invalid section name %q", section)
		return
	}
	e.sections = append(e.sections, section)
	e.line("begin " + section)
}

// End closes the innermost open section, which must be named section.
func (e *Encoder) End(section string) {
	if e.err != nil {
		return
	}
	if len(e.sections) == 0 || e.sections[len(e.sections)-1] != section {
		e.err = fmt.Errorf("ckpt: End(%q) does not match open section", section)
		return
	}
	e.sections = e.sections[:len(e.sections)-1]
	e.line("end " + section)
}

// Put writes one record: a key and its typed field tokens (render them
// with Uint, Int, Float, Bool, or Quote).
func (e *Encoder) Put(key string, fields ...string) {
	if e.err != nil {
		return
	}
	if !validName(key) {
		e.err = fmt.Errorf("ckpt: invalid record key %q", key)
		return
	}
	for _, f := range fields {
		if f == "" || strings.ContainsAny(f, " \t\r\n") {
			e.err = fmt.Errorf("ckpt: record %q field %q contains separator bytes", key, f)
			return
		}
	}
	if len(fields) == 0 {
		e.line(key)
		return
	}
	e.line(key + " " + strings.Join(fields, " "))
}

// Close writes the checksum trailer and flushes. It reports the first
// error encountered anywhere in the encode.
func (e *Encoder) Close() error {
	if e.err == nil && len(e.sections) != 0 {
		e.err = fmt.Errorf("ckpt: Close with section %q still open", e.sections[len(e.sections)-1])
	}
	if e.err != nil {
		return e.err
	}
	// The checksum line covers everything before it and is not itself
	// hashed.
	if _, err := fmt.Fprintf(e.w, "checksum %016x\n", e.sum.Sum64()); err != nil {
		e.err = err
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// Fail latches a caller-side error (e.g. a component whose live state is
// not checkpointable); the encode is poisoned and Close reports it.
func (e *Encoder) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Uint renders an unsigned integer token.
func Uint(v uint64) string { return strconv.FormatUint(v, 10) }

// Int renders a signed integer token.
func Int(v int64) string { return strconv.FormatInt(v, 10) }

// Float renders a float64 token in hexadecimal notation; the decoded
// value is bit-identical, including negative zero, infinities, and the
// NaN the stats package uses for undefined moments.
func Float(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// Bool renders a boolean token as 0 or 1.
func Bool(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// Quote renders a string token as a Go-quoted literal with spaces
// escaped, so the token never contains a raw field separator. Rec.Str
// reverses it via strconv.Unquote.
func Quote(s string) string {
	return strings.ReplaceAll(strconv.Quote(s), " ", `\x20`)
}

// validName restricts section names and record keys to a conservative
// token alphabet so the line structure stays unambiguous.
func validName(s string) bool {
	if s == "" || s == "begin" || s == "end" || s == "checksum" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Decoder reads a checkpoint stream written by Encoder. Reads are
// strictly sequential: the caller asks for exactly the sections and
// record keys it expects, in order, and any mismatch — wrong key, wrong
// field count, malformed token, structural damage — is an error. Errors
// latch; Close verifies the checksum trailer and clean EOF.
type Decoder struct {
	r        *bufio.Reader
	sum      interface{ Sum64() uint64 }
	sections []string
	peeked   *string // one-line lookahead (already hashed)
	err      error
	hash     func(s string)
}

// NewDecoder wraps r and validates the version-1 header line.
func NewDecoder(r io.Reader) (*Decoder, error) {
	h := fnv.New64a()
	d := &Decoder{r: bufio.NewReader(r), sum: h}
	d.hash = func(s string) { _, _ = io.WriteString(h, s) }
	first, err := d.rawLine()
	if err != nil {
		return nil, fmt.Errorf("ckpt: header: %w", err)
	}
	d.hash(first)
	d.hash("\n")
	if first != header {
		if strings.HasPrefix(first, magic+" ") {
			return nil, fmt.Errorf("ckpt: unsupported version %q (this build reads v%d)", first, Version)
		}
		return nil, fmt.Errorf("ckpt: not a checkpoint (header %q)", first)
	}
	return d, nil
}

// rawLine reads one line (without the newline). It does not hash and
// does not consult the lookahead; hashing happens when the line is
// consumed by next, so a peeked-but-unconsumed trailer never perturbs
// the checksum Close captures.
func (d *Decoder) rawLine() (string, error) {
	s, err := d.r.ReadString('\n')
	if err != nil {
		if err == io.EOF && s != "" {
			return "", fmt.Errorf("truncated line %q", s)
		}
		return "", err
	}
	s = s[:len(s)-1]
	if strings.ContainsRune(s, '\r') {
		return "", fmt.Errorf("carriage return in line %q", s)
	}
	return s, nil
}

// next returns the next line, consuming (and hashing) the lookahead if
// present.
func (d *Decoder) next() (string, error) {
	if d.err != nil {
		return "", d.err
	}
	if d.peeked != nil {
		s := *d.peeked
		d.peeked = nil
		d.hash(s)
		d.hash("\n")
		return s, nil
	}
	s, err := d.rawLine()
	if err != nil {
		if err == io.EOF {
			d.err = fmt.Errorf("ckpt: unexpected end of checkpoint")
		} else {
			d.err = fmt.Errorf("ckpt: %w", err)
		}
		return "", d.err
	}
	d.hash(s)
	d.hash("\n")
	return s, nil
}

// peek returns the next line without consuming it (and without folding
// it into the checksum — that happens when next consumes it).
func (d *Decoder) peek() (string, error) {
	if d.err != nil {
		return "", d.err
	}
	if d.peeked == nil {
		s, err := d.rawLine()
		if err != nil {
			if err == io.EOF {
				d.err = fmt.Errorf("ckpt: unexpected end of checkpoint")
			} else {
				d.err = fmt.Errorf("ckpt: %w", err)
			}
			return "", d.err
		}
		d.peeked = &s
	}
	return *d.peeked, nil
}

// fail latches and returns a decode error.
func (d *Decoder) fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
	return d.err
}

// Begin consumes the opening line of the named section.
func (d *Decoder) Begin(section string) error {
	line, err := d.next()
	if err != nil {
		return err
	}
	if line != "begin "+section {
		return d.fail("want %q, found %q", "begin "+section, line)
	}
	d.sections = append(d.sections, section)
	return nil
}

// End consumes the closing line of the named section, which must be the
// innermost open one.
func (d *Decoder) End(section string) error {
	line, err := d.next()
	if err != nil {
		return err
	}
	if len(d.sections) == 0 || d.sections[len(d.sections)-1] != section {
		return d.fail("End(%q) does not match open section", section)
	}
	if line != "end "+section {
		return d.fail("want %q, found %q", "end "+section, line)
	}
	d.sections = d.sections[:len(d.sections)-1]
	return nil
}

// AtEnd reports whether the next line closes the named section, without
// consuming it. It lets a reader loop over a variable-length run of
// records inside a section.
func (d *Decoder) AtEnd(section string) bool {
	line, err := d.peek()
	if err != nil {
		return true // the latched error surfaces on the next read
	}
	return line == "end "+section
}

// PeekKey reports the key token of the next record line without
// consuming it ("" on structural lines or after an error).
func (d *Decoder) PeekKey() string {
	line, err := d.peek()
	if err != nil {
		return ""
	}
	key, _, _ := strings.Cut(line, " ")
	switch key {
	case "begin", "end", "checksum":
		return ""
	}
	return key
}

// Record consumes the next line, which must be a record with the given
// key, and returns a cursor over its field tokens. The cursor shares the
// decoder's latched error state.
func (d *Decoder) Record(key string) *Rec {
	rec := &Rec{d: d, key: key}
	line, err := d.next()
	if err != nil {
		return rec
	}
	got, rest, _ := strings.Cut(line, " ")
	if got != key {
		_ = d.fail("want record %q, found %q", key, line)
		return rec
	}
	if rest != "" {
		rec.fields = strings.Fields(rest)
	}
	return rec
}

// Close consumes the checksum trailer, verifies it, and requires clean
// EOF after it.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.sections) != 0 {
		return d.fail("Close with section %q still open", d.sections[len(d.sections)-1])
	}
	want := d.sum.Sum64() // state before the trailer line is hashed
	line, err := d.next()
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "checksum" {
		return d.fail("want checksum trailer, found %q", line)
	}
	got, perr := strconv.ParseUint(fields[1], 16, 64)
	if perr != nil || len(fields[1]) != 16 {
		return d.fail("malformed checksum %q", fields[1])
	}
	if got != want {
		return d.fail("checksum mismatch: file says %016x, content hashes to %016x", got, want)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return d.fail("trailing bytes after checksum")
	}
	return nil
}

// Rec is a sequential cursor over one record's field tokens. Typed reads
// consume tokens left to right; Done asserts exhaustion. All methods are
// no-ops (returning zero values) once an error is latched on the
// decoder.
type Rec struct {
	d      *Decoder
	key    string
	fields []string
	pos    int
}

// token consumes the next raw field token.
func (r *Rec) token() (string, bool) {
	if r.d.err != nil {
		return "", false
	}
	if r.pos >= len(r.fields) {
		_ = r.d.fail("record %q: missing field %d", r.key, r.pos+1)
		return "", false
	}
	t := r.fields[r.pos]
	r.pos++
	return t, true
}

// Uint consumes an unsigned integer field.
func (r *Rec) Uint() uint64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// Int consumes a signed integer field.
func (r *Rec) Int() int64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// IntAsInt consumes a signed integer field that must fit in int.
func (r *Rec) IntAsInt() int {
	v := r.Int()
	if int64(int(v)) != v {
		_ = r.d.fail("record %q field %d: %d overflows int", r.key, r.pos, v)
		return 0
	}
	return int(v)
}

// Float consumes a float64 field written in hexadecimal notation.
func (r *Rec) Float() float64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// Bool consumes a boolean field (0 or 1).
func (r *Rec) Bool() bool {
	t, ok := r.token()
	if !ok {
		return false
	}
	switch t {
	case "0":
		return false
	case "1":
		return true
	}
	_ = r.d.fail("record %q field %d: boolean %q not 0/1", r.key, r.pos, t)
	return false
}

// Str consumes a Go-quoted string field.
func (r *Rec) Str() string {
	t, ok := r.token()
	if !ok {
		return ""
	}
	v, err := strconv.Unquote(t)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return ""
	}
	return v
}

// Len reports the total number of field tokens in the record, letting a
// reader consume a batch record whose width varies (e.g. up to k sample
// values per line).
func (r *Rec) Len() int { return len(r.fields) }

// Done asserts every field has been consumed; extra fields are an error.
func (r *Rec) Done() error {
	if r.d.err != nil {
		return r.d.err
	}
	if r.pos != len(r.fields) {
		return r.d.fail("record %q: %d trailing fields", r.key, len(r.fields)-r.pos)
	}
	return nil
}
