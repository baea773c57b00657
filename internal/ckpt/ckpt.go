// Package ckpt implements the versioned "osmosis-ckpt v2" checkpoint
// format: a line-oriented ASCII container for simulator state snapshots.
// A checkpoint taken at slot T and restored must reproduce the
// uninterrupted run bit for bit, so the format is exact (float64 values
// round-trip through hexadecimal notation), ordered (records decode in
// the same fixed order they were encoded — there is no random access and
// no optional-field skipping), and strict (any structural damage —
// truncation, reordering, edits, bit flips — is rejected). The same
// container carries recorded workload traces (traffic.Trace).
//
// Layout:
//
//	osmosis-ckpt v2
//	begin <section>
//	<key> <field> <field> ...
//	end <section>
//	...
//	checksum <16 hex digits>
//
// Sections nest. Every record line is a key followed by space-separated
// typed tokens: unsigned and signed integers in decimal, booleans as 0/1,
// float64 in Go hexadecimal-float notation ('x' format, exact), strings
// Go-quoted, one space apart. Every token must be the one form Encoder
// writes for its value (no leading zeros or plus signs, no decimal
// floats), so a checkpoint that decodes re-encodes byte for byte. The
// trailing checksum line carries the FNV-1a 64-bit hash of every byte
// that precedes it. NewDecoder reads its whole input and checks the
// header, that trailer and the line endings before it returns, so a
// damaged file is refused before any record builds state; only token
// form, order and section structure are left to the record walk.
//
// Both Encoder and Decoder latch their first error: after a failure every
// later call is a no-op, so call sites chain writes and reads without
// per-line checks, add their own checks through Fail, and inspect the
// error once, at Close (or Err). A decode error names the file line it
// was found on. Range checks live in the read itself: a bounded read
// (Rec.IntIn, Rec.UintIn, Rec.Count) checks the full 64-bit token and,
// on failure or after an earlier one, returns an in-range value, so a
// forged number never reaches an index, a loop bound or an allocation.
package ckpt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Version is the checkpoint format version this package reads and writes.
// Version 2 stores latency collectors as (value, count) histograms where
// version 1 listed every sample; a v1 file is refused as unsupported.
const Version = 2

// magic opens every checkpoint file.
const magic = "osmosis-ckpt"

// header is the exact first line of a version-2 checkpoint.
const header = magic + " v2"

// fnv64a is an FNV-1a 64-bit hash, the value hash/fnv.New64a computes,
// folded over strings in place: hash/fnv's Write takes a []byte, so
// feeding it a line through io.WriteString copies the line.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

// fold returns h with every byte of s folded in.
func fold(h fnv64a, s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h ^= fnv64a(s[i])
		h *= fnvPrime64
	}
	return h
}

// trailer renders the checksum line for a file whose bytes before that
// line hash to h; the line itself is not hashed.
func (h fnv64a) trailer() string { return fmt.Sprintf("checksum %016x", uint64(h)) }

// line folds s and its newline into the hash.
func (h *fnv64a) line(s string) {
	v := fold(*h, s)
	v ^= '\n'
	*h = v * fnvPrime64
}

// Encoder writes a checkpoint stream. Errors latch: after the first
// write failure all later calls are no-ops and Close reports the error.
type Encoder struct {
	w        *bufio.Writer
	sum      fnv64a // every written line, newline included
	sections []string
	err      error
}

// NewEncoder starts a version-2 checkpoint on w and writes the header.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w), sum: fnvOffset64}
	e.line(header)
	return e
}

// line writes one raw line and folds it into the checksum.
func (e *Encoder) line(s string) {
	if e.err != nil {
		return
	}
	e.sum.line(s)
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
	if _, err := e.w.WriteString(e.sum.trailer() + "\n"); err != nil {
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

// Decoder reads a checkpoint written by Encoder. NewDecoder reads its
// whole input and checks the header, the checksum trailer and the line
// endings before it returns, so no record reaches a caller from a
// damaged file. Reads are then strictly sequential over the checked
// lines: the caller asks for exactly the sections and record keys it
// expects, in order, and any mismatch — wrong key, wrong field count,
// malformed, non-canonical or out-of-range token — is an error.
//
// Errors latch, as on Encoder: Begin, End and Rec.Done return nothing,
// the first error wins, and every later read is a no-op returning a
// zero (or, for a bounded read, an in-range) value. Fail latches a
// caller's own check. Every error names the file line it was found on.
// A reader that builds something reads the error once, from Close or
// Err; Close also requires every section closed and every line read.
type Decoder struct {
	body     string // the lines between the header and the trailer, each ending in a newline
	pos      int    // offset in body of the next unread line
	line     int    // file line number of the last line consumed; the header is line 1
	last     int    // file line number of the last line before the trailer
	sections []string
	err      error
}

// NewDecoder reads r to the end and checks the version-2 header, the
// checksum trailer over every byte before it, and that no line holds a
// carriage return.
func NewDecoder(r io.Reader) (*Decoder, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	body, err := check(b.String())
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Decoder{body: body, line: 1, last: 1 + strings.Count(body, "\n")}, nil
}

// check verifies a whole checkpoint's framing and returns the lines
// between its header and its trailer.
func check(text string) (string, error) {
	if first, _, _ := strings.Cut(text, "\n"); first != header {
		if strings.HasPrefix(first, magic+" ") {
			return "", fmt.Errorf("unsupported version %q (this build reads v%d)", first, Version)
		}
		return "", fmt.Errorf("not a checkpoint (header %q)", first)
	}
	if !strings.HasSuffix(text, "\n") {
		return "", fmt.Errorf("checkpoint does not end with a newline")
	}
	if i := strings.IndexByte(text, '\r'); i >= 0 {
		return "", fmt.Errorf("carriage return at byte %d", i)
	}
	i := strings.LastIndexByte(text[:len(text)-1], '\n') + 1
	trailer := text[i : len(text)-1]
	if !strings.HasPrefix(trailer, "checksum ") {
		return "", fmt.Errorf("want checksum trailer, found %q", trailer)
	}
	if want := fold(fnvOffset64, text[:i]).trailer(); trailer != want {
		return "", fmt.Errorf("checksum mismatch: file says %q, content hashes to %q", trailer, want)
	}
	return text[len(header)+1 : i], nil
}

// failAt latches a decode error found on file line n.
func (d *Decoder) failAt(n int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: line %d: %s", n, fmt.Sprintf(format, args...))
	}
}

// Fail latches a caller-side check against the line just read (a field
// that disagrees with the live shape, a record out of order); the decode
// is poisoned and Err and Close report it. The first error wins, and a
// nil err is ignored.
func (d *Decoder) Fail(err error) {
	if d.err == nil && err != nil {
		d.err = fmt.Errorf("ckpt: line %d: %w", d.line, err)
	}
}

// Err reports the latched error, if any, without closing.
func (d *Decoder) Err() error { return d.err }

// peek returns the next unread line without its newline; false once an
// error is latched or when no line is left (which latches one).
func (d *Decoder) peek() (string, bool) {
	if d.err != nil {
		return "", false
	}
	if d.pos == len(d.body) {
		d.failAt(d.line+1, "unexpected end of checkpoint")
		return "", false
	}
	rest := d.body[d.pos:]
	return rest[:strings.IndexByte(rest, '\n')], true
}

// next consumes and returns the next line.
func (d *Decoder) next() (string, bool) {
	s, ok := d.peek()
	if ok {
		d.pos += len(s) + 1
		d.line++
	}
	return s, ok
}

// Begin consumes the opening line of the named section.
func (d *Decoder) Begin(section string) {
	line, ok := d.next()
	if !ok {
		return
	}
	if line != "begin "+section {
		d.failAt(d.line, "want %q, found %q", "begin "+section, line)
		return
	}
	d.sections = append(d.sections, section)
}

// End consumes the closing line of the named section, which must be the
// innermost open one.
func (d *Decoder) End(section string) {
	line, ok := d.next()
	if !ok {
		return
	}
	switch {
	case len(d.sections) == 0 || d.sections[len(d.sections)-1] != section:
		d.failAt(d.line, "End(%q) does not match open section", section)
	case line != "end "+section:
		d.failAt(d.line, "want %q, found %q", "end "+section, line)
	default:
		d.sections = d.sections[:len(d.sections)-1]
	}
}

// AtEnd reports whether the next line closes the named section, without
// consuming it. It lets a reader loop over a variable-length run of
// records inside a section; it is true once an error is latched, so such
// a loop stops at the first error.
func (d *Decoder) AtEnd(section string) bool {
	line, ok := d.peek()
	return !ok || line == "end "+section
}

// PeekKey reports the key token of the next record line without
// consuming it ("" on structural lines or after an error).
func (d *Decoder) PeekKey() string {
	line, ok := d.peek()
	if !ok {
		return ""
	}
	key, _, _ := strings.Cut(line, " ")
	switch key {
	case "begin", "end":
		return ""
	}
	return key
}

// Record consumes the next line, which must be a record with the given
// key, and returns a cursor over its field tokens. The cursor shares the
// decoder's latched error state.
func (d *Decoder) Record(key string) *Rec {
	line, ok := d.next()
	rec := &Rec{d: d, key: key, line: d.line}
	if !ok {
		return rec
	}
	got, rest, found := strings.Cut(line, " ")
	if got != key {
		d.failAt(d.line, "want record %q, found %q", key, line)
		return rec
	}
	if found {
		// Encoder separates fields by exactly one space, so a doubled or
		// trailing space leaves an empty token that no typed read accepts.
		rec.fields = strings.Split(rest, " ")
	}
	return rec
}

// Close requires every section closed and every line before the
// checksum trailer read, and reports the first error of the decode.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.sections) != 0 {
		d.failAt(d.line, "Close with section %q still open", d.sections[len(d.sections)-1])
	} else if d.pos != len(d.body) {
		line, _ := d.peek()
		d.failAt(d.line+1, "unread line %q before the checksum", line)
	}
	return d.err
}

// Rec is a sequential cursor over one record's field tokens. Typed reads
// consume tokens left to right; Done asserts exhaustion. Once an error
// is latched on the decoder every read returns a zero value, and a
// bounded read (IntIn, UintIn, Count) the low end of its range.
type Rec struct {
	d      *Decoder
	key    string
	line   int // file line number of the record
	fields []string
	pos    int
}

// fail latches an error about the field just consumed.
func (r *Rec) fail(format string, args ...any) {
	r.d.failAt(r.line, "record %q field %d: %s", r.key, r.pos, fmt.Sprintf(format, args...))
}

// token consumes the next raw field token.
func (r *Rec) token() (string, bool) {
	if r.d.err != nil {
		return "", false
	}
	if r.pos >= len(r.fields) {
		r.d.failAt(r.line, "record %q: missing field %d", r.key, r.pos+1)
		return "", false
	}
	t := r.fields[r.pos]
	r.pos++
	return t, true
}

// canonical reports whether token t is exactly the rendering Encoder
// writes for its parsed value (want), latching an error when it is not:
// "+5", "007" or a decimal float parse, but no encoder writes them, and
// a checkpoint that decodes must re-encode byte for byte.
func (r *Rec) canonical(t, want string) bool {
	if t != want {
		r.fail("%q is not in canonical form %q", t, want)
		return false
	}
	return true
}

// parseUint consumes an unsigned integer field; false after any error.
func (r *Rec) parseUint() (uint64, bool) {
	t, ok := r.token()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		r.fail("%v", err)
		return 0, false
	}
	return v, r.canonical(t, Uint(v))
}

// parseInt consumes a signed integer field; false after any error.
func (r *Rec) parseInt() (int64, bool) {
	t, ok := r.token()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		r.fail("%v", err)
		return 0, false
	}
	return v, r.canonical(t, Int(v))
}

// Uint consumes an unsigned integer field.
func (r *Rec) Uint() uint64 {
	v, ok := r.parseUint()
	if !ok {
		return 0
	}
	return v
}

// Int consumes a signed integer field.
func (r *Rec) Int() int64 {
	v, ok := r.parseInt()
	if !ok {
		return 0
	}
	return v
}

// UintIn consumes an unsigned integer field that must lie in [lo, hi).
// The check is made on the full 64-bit token; a value outside the range
// latches an error, and then (as after any error) UintIn returns lo, so
// code after a failed read never indexes, loops or allocates with a
// forged number.
func (r *Rec) UintIn(lo, hi uint64) uint64 {
	v, ok := r.parseUint()
	if !ok {
		return lo
	}
	if v < lo || v >= hi {
		r.fail("%d out of [%d,%d)", v, lo, hi)
		return lo
	}
	return v
}

// IntIn consumes a signed integer field that must lie in [lo, hi),
// checked on the full 64-bit token before the conversion to int. Like
// UintIn it returns lo after any error.
func (r *Rec) IntIn(lo, hi int) int {
	v, ok := r.parseInt()
	if !ok {
		return lo
	}
	if v < int64(lo) || v >= int64(hi) {
		r.fail("%d out of [%d,%d)", v, lo, hi)
		return lo
	}
	return int(v)
}

// Count consumes the count of a run of records that follows: an
// unsigned field no larger than the number of lines left before the
// trailer. A loop over the count therefore ends within the file, even
// when a record inside it fails and every later read is a no-op.
func (r *Rec) Count() int {
	return int(r.UintIn(0, uint64(r.d.last-r.line)+1))
}

// Float consumes a float64 field written in hexadecimal notation.
func (r *Rec) Float() float64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		r.fail("%v", err)
		return 0
	}
	if !r.canonical(t, Float(v)) {
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
	r.fail("boolean %q not 0/1", t)
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
		r.fail("%v", err)
		return ""
	}
	if !r.canonical(t, Quote(v)) {
		return ""
	}
	return v
}

// Len reports the total number of field tokens in the record, letting a
// reader consume a batch record whose width varies (e.g. up to k sample
// values per line).
func (r *Rec) Len() int { return len(r.fields) }

// Done asserts every field has been consumed; extra fields are an error.
func (r *Rec) Done() {
	if r.d.err == nil && r.pos != len(r.fields) {
		r.d.failAt(r.line, "record %q: %d trailing fields", r.key, len(r.fields)-r.pos)
	}
}
