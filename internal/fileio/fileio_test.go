package fileio

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestScannerGrammar: the spellings Int and Float accept, the ones they
// refuse (among them what fmt reads differently), and the record rules.
func TestScannerGrammar(t *testing.T) {
	scan := func(line string) *Scanner {
		s := NewScanner(strings.NewReader(line))
		s.Next(1, false)
		return s
	}
	for _, c := range []struct {
		in   string
		want int64
	}{{"12", 12}, {"-3", -3}, {"+4", 4}, {"0", 0}, {"-0", 0}, {"9223372036854775807", math.MaxInt64}} {
		if s := scan(c.in); s.Int(0) != c.want || s.Err() != nil {
			t.Errorf("Int(%q) = %d, %v; want %d", c.in, s.Int(0), s.Err(), c.want)
		}
	}
	for _, in := range []string{"012", "-01", "00", "0x1F", "1_000", "1.5", "9223372036854775808", "5abc"} {
		s := scan(in)
		if s.Int(0); s.Err() == nil {
			t.Errorf("Int(%q) read without error", in)
		}
	}
	for _, c := range []struct {
		in   string
		want float64
	}{{"1.5", 1.5}, {"-2e-3", -2e-3}, {"0x1p-2", 0.25}, {"inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"5e-324", 5e-324}, {"1_0.5", 10.5}} {
		if s := scan(c.in); s.Float(0) != c.want || s.Err() != nil {
			t.Errorf("Float(%q) = %v, %v; want %v", c.in, s.Float(0), s.Err(), c.want)
		}
	}
	if s := scan("NaN"); !math.IsNaN(s.Float(0)) || s.Err() != nil {
		t.Errorf("Float(NaN) = %v, %v", s.Float(0), s.Err())
	}
	for _, in := range []string{"infinity", "-Infinity", "1.5p3", "0x1", "1e400", "1.5x"} {
		s := scan(in)
		if s.Float(0); s.Err() == nil {
			t.Errorf("Float(%q) read without error", in)
		}
	}

	s := NewScanner(strings.NewReader("# a comment\n\n \t\r\n  # another\n1\t2 \r\n1 2 3\n1\n"))
	if n := s.Next(2, true); n != 2 || s.Int(0) != 1 || s.Int(1) != 2 || s.Err() != nil {
		t.Errorf("first record: %d fields, %v", n, s.Err())
	}
	if s.Next(2, true); s.Err() == nil {
		t.Error("three fields read as an exact record of two")
	}
	if s.Next(2, false); s.Err() == nil {
		t.Error("one field read as a record of at least two")
	}
	if s.Next(1, false); !errors.Is(s.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("past the end: %v, want io.ErrUnexpectedEOF", s.Err())
	}
}

// TestScannerAllocatesNothingPerRecord: reading and parsing a record
// allocates nothing once the scanner's buffers exist.
func TestScannerAllocatesNothingPerRecord(t *testing.T) {
	const line = "123 -4.5e-06 0.33333333333333331 +Inf 7\n"
	s := NewScanner(strings.NewReader(strings.Repeat(line, 200)))
	s.Next(5, true)
	got := testing.AllocsPerRun(100, func() {
		s.Next(5, true)
		_, _, _, _, _ = s.Int(0), s.Float(1), s.Float(2), s.Float(3), s.Int(4)
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per record, want none", got)
	}
}
