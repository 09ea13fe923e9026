// Package fileio is the one codec of the mesh files of internal/mesh and
// the .poly graphs of internal/pslg: writers append fields into one reused
// chunk (Encoder), text readers parse one record per line (Scanner), both
// with strconv. The flush policy, the number grammar, the line cap and the
// header-count prealloc cap are decided here and nowhere else.
package fileio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
)

// MaxPrealloc bounds the records a reader reserves on the word of a header
// count alone; past it the slices grow as records arrive, so a header
// claiming 10^9 points in a twelve-byte input costs kilobytes, not
// gigabytes.
const MaxPrealloc = 4096

// chunkSize is the encoder's buffer; chunkSlack is room past its flush
// point for the widest record a writer appends: an ASCII point line of 10
// index digits is 61 bytes, a triangle line of four out-of-range int32
// indices 47, a .poly vertex line 72.
const (
	chunkSize  = 64 << 10
	chunkSlack = 128
)

// Encoder appends a writer's fields into one reused chunk with strconv
// and encoding/binary, byte for byte what fmt's %d and %.17g and
// binary.Write produce, and hands each full chunk to w. A destination
// that offers room for the whole output (a bytes.Buffer presized at its
// bound) is appended to in place and written once at the end, so
// rendering into it allocates nothing. The first write error sticks:
// later chunks are dropped and Flush returns it.
type Encoder struct {
	w     io.Writer
	buf   []byte
	limit int // flush once buf is longer
	err   error
}

// NewEncoder starts an encoder for an output of at most size bytes.
func NewEncoder(w io.Writer, size int) Encoder {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		if b := ab.AvailableBuffer(); cap(b) >= size {
			return Encoder{w: w, buf: b, limit: math.MaxInt}
		}
	}
	n := max(min(size, chunkSize), 2*chunkSlack)
	return Encoder{w: w, buf: make([]byte, 0, n), limit: n - chunkSlack}
}

// Str appends s as it is.
func (e *Encoder) Str(s string) { e.buf = append(e.buf, s...) }

// Ints appends each v as %d and Floats each x as %.17g, which reads back
// as x exactly, each followed by a blank; Line turns the last blank of a
// line into its newline.
func (e *Encoder) Ints(vs ...int) {
	for _, v := range vs {
		e.buf = append(strconv.AppendInt(e.buf, int64(v), 10), ' ')
	}
}

func (e *Encoder) Floats(xs ...float64) {
	for _, x := range xs {
		e.buf = append(strconv.AppendFloat(e.buf, x, 'g', 17, 64), ' ')
	}
}

// U32 and F64 append a little-endian binary field.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) F64(x float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
}

// Line ends a text record and flushes the chunk once the next might not
// fit.
func (e *Encoder) Line() {
	if n := len(e.buf); n > 0 && e.buf[n-1] == ' ' {
		e.buf[n-1] = '\n'
	} else {
		e.buf = append(e.buf, '\n')
	}
	e.Record()
}

// Record ends a binary record and flushes the chunk once the next might
// not fit.
func (e *Encoder) Record() {
	if len(e.buf) > e.limit {
		e.Flush()
	}
}

// Flush hands the chunk to w and returns the first write error.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		if err == nil && n < len(e.buf) {
			err = io.ErrShortWrite
		}
		e.err = err
	}
	e.buf = e.buf[:0]
	return e.err
}

// Scanner reads a text file one record per line. It skips blank lines and
// lines whose first field starts with '#', splits the next line into
// fields at ASCII blanks without allocating, and parses them with
// strconv.ParseInt(f, 10, 64) and strconv.ParseFloat(f, 64), refusing two
// spellings that fmt's scanner reads differently and no writer produces:
// an integer with a leading zero (octal to fmt) and "infinity". A record's
// first failure (no record left, a wrong field count, a field that does
// not parse) sticks until the next Next; Err reports it.
type Scanner struct {
	sc     *bufio.Scanner
	fields [][]byte
	err    error
}

const blanks = " \t\r\v\f" // the ASCII blanks fmt and strings.Fields both skip

// NewScanner reads from r. Its line buffer starts small and grows up to a
// 1 MiB cap on the longest line; a longer line is an error.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	return &Scanner{sc: sc}
}

// Next reads the next record, which must hold least fields, or more
// unless exact, and returns its field count.
func (s *Scanner) Next(least int, exact bool) int {
	for s.err = nil; s.sc.Scan(); {
		s.fields = s.fields[:0]
		for line := bytes.TrimLeft(s.sc.Bytes(), blanks); len(line) > 0; line = bytes.TrimLeft(line, blanks) {
			n := bytes.IndexAny(line, blanks)
			if n < 0 {
				n = len(line)
			}
			s.fields = append(s.fields, line[:n])
			line = line[n:]
		}
		if n := len(s.fields); n == 0 || s.fields[0][0] == '#' {
			continue
		} else if n < least || exact && n > least {
			s.err = fmt.Errorf("%d fields, want %d", n, least)
		}
		return len(s.fields)
	}
	if s.err = s.sc.Err(); s.err == nil {
		s.err = io.ErrUnexpectedEOF
	}
	return 0
}

// Int parses field i as a decimal integer.
func (s *Scanner) Int(i int) int64 {
	if s.err != nil {
		return 0
	}
	f := s.fields[i]
	v, err := strconv.ParseInt(string(f), 10, 64)
	if d := bytes.TrimLeft(f, "+-"); err == nil && len(d) > 1 && d[0] == '0' {
		err = fmt.Errorf("integer %q has a leading zero", f)
	}
	s.err = err
	return v
}

// Float parses field i as a decimal or hexadecimal float, "inf" or "nan".
func (s *Scanner) Float(i int) float64 {
	if s.err != nil {
		return 0
	}
	f := s.fields[i]
	v, err := strconv.ParseFloat(string(f), 64)
	if err == nil && math.IsInf(v, 0) && len(f) > len("+inf") {
		err = fmt.Errorf("%q spelled out", f)
	}
	s.err = err
	return v
}

// Err is the current record's first failure, or nil.
func (s *Scanner) Err() error { return s.err }
