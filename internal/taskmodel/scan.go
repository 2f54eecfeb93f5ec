package taskmodel

import (
	"bytes"
	"unicode/utf8"
)

// Scanner reads, in one pass and without reflection, the plain JSON
// form every writer in the repository emits (json.Marshal, WriteJSON):
// the task-set form here, and the request envelopes that carry it. It
// accepts a strict subset of JSON:
//
//   - objects whose keys are exact-case known names, each at most once;
//   - strings without escapes or control characters, in valid UTF-8;
//   - integers: an optional minus, at most 18 digits, no leading zero,
//     not "-0", no fraction or exponent;
//   - true and false;
//   - arrays, and index lists: arrays of unsigned integers.
//
// On anything else — null, an escape, an unknown, case-variant or
// repeated key, a longer number, invalid UTF-8, bytes after the value —
// the scanner declines: More reports no further element, End reports
// false, and what the readers returned is to be discarded. The caller
// then decodes the same bytes with
// encoding/json, which defines the form, its error texts and its edge
// cases (merged repeated keys, case-insensitive names, replaced invalid
// UTF-8); on every input the scanner accepts, the two decode equal
// values.
//
// Arrays and objects are read with Open and More:
//
//	s.Open('{')
//	for s.More('}') {
//		switch s.Key(names, &seen) { ... }
//	}
type Scanner struct {
	data []byte
	pos  int
	// first is set by Open until More admits the first element.
	first bool
	fail  bool
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// maxDigits keeps every accepted integer inside int64; longer numbers,
// and their range errors, are encoding/json's.
const maxDigits = 18

// skip moves past JSON whitespace and returns the next byte, 0 at the
// end of the data.
func (s *Scanner) skip() byte {
	s.pos = space(s.data, s.pos)
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// space returns the index of the first byte at or after i in data that
// is not JSON whitespace.
func space(data []byte, i int) int {
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return i
		}
	}
	return i
}

// expect consumes c as the next byte after whitespace.
func (s *Scanner) expect(c byte) {
	if s.skip() != c {
		s.fail = true
		return
	}
	s.pos++
}

// Open consumes the bracket that opens an object ('{') or an array
// ('[').
func (s *Scanner) Open(bracket byte) {
	s.expect(bracket)
	s.first = true
}

// More reports whether another element follows in the object or array
// opened last, consuming the comma before it; at the closing bracket it
// consumes that and reports false.
func (s *Scanner) More(closing byte) bool {
	if s.fail {
		return false
	}
	c := s.skip()
	if c == closing {
		s.pos++
		s.first = false
		return false
	}
	if s.first {
		s.first = false
		return true
	}
	if c != ',' {
		s.fail = true
		return false
	}
	s.pos++
	return true
}

// Key reads an object key and its colon. It returns the key when it is
// one of names not yet marked in *seen (bit i stands for names[i]), and
// marks it; on any other key it declines and returns "".
func (s *Scanner) Key(names []string, seen *uint64) string {
	k := s.str()
	s.expect(':')
	if s.fail {
		return ""
	}
	for i, name := range names {
		if string(k) == name {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return name
		}
	}
	s.fail = true
	return ""
}

// str reads a string and returns its bytes, which alias the data.
func (s *Scanner) str() []byte {
	if s.skip() != '"' {
		s.fail = true
		return nil
	}
	start, ascii := s.pos+1, true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			if !ascii && !utf8.Valid(s.data[start:i]) {
				s.fail = true
			}
			return s.data[start:i]
		case c < 0x20 || c == '\\':
			s.fail = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.fail = true
	return nil
}

// Str reads a string value.
func (s *Scanner) Str() string { return string(s.str()) }

// Int64 reads an integer value.
func (s *Scanner) Int64() int64 {
	v, end, ok := integer(s.data, space(s.data, s.pos))
	s.pos = end
	if !ok {
		s.fail = true
	}
	return v
}

// Int reads an integer value that fits an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.fail = true
		return 0
	}
	return int(v)
}

// integer parses the integer that starts at data[i] and returns it and
// the index after its last digit; ok=false when the bytes there are
// not an integer the scanner reads.
func integer(data []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	v, end, ok = digits(data, i)
	if neg {
		return -v, end, ok && v != 0
	}
	return v, end, ok
}

// digits parses the run of decimal digits that starts at data[i] and
// returns its value and the index after it; ok=false unless the run
// has 1 to maxDigits digits and no leading zero.
func digits(data []byte, i int) (v int64, end int, ok bool) {
	for end = i; end < len(data); end++ {
		d := data[end] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	n := end - i
	return v, end, n > 0 && n <= maxDigits && (n == 1 || data[i] != '0')
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	s.skip()
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += len("false")
		return false
	}
	s.fail = true
	return false
}

// End reports whether the scanner accepted everything: no reader
// declined, and only whitespace follows the value read.
func (s *Scanner) End() bool {
	return !s.fail && s.skip() == 0 && s.pos == len(s.data)
}

// indexList reads an array of unsigned integers, sized from its
// commas before it is filled.
func (s *Scanner) indexList() IndexList {
	s.expect('[')
	if s.fail {
		return nil
	}
	end := bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		s.fail = true
		return nil
	}
	list := s.data[s.pos : s.pos+end]
	s.pos += end + 1
	idx := make(IndexList, 0, bytes.Count(list, []byte{','})+1)
	i := space(list, 0)
	if i == len(list) {
		return idx
	}
	for {
		v, j, ok := digits(list, i)
		if !ok || int64(int(v)) != v {
			s.fail = true
			return nil
		}
		idx = append(idx, int(v))
		if i = space(list, j); i == len(list) {
			return idx
		}
		if list[i] != ',' {
			s.fail = true
			return nil
		}
		i = space(list, i+1)
	}
}

// The JSON names of the wire form's fields, in the order Key's bits
// follow.
var (
	taskSetKeys  = []string{"platform", "tasks"}
	platformKeys = []string{"NumCores", "Cache", "DMem", "SlotSize", "RegBudget", "RegPeriod", "L2", "DL2"}
	cacheKeys    = []string{"NumSets", "BlockSizeBytes", "Associativity"}
	taskKeys     = []string{"name", "core", "priority", "pd", "md", "mdr", "period", "deadline", "ucb", "ecb", "pcb"}
)

// TaskSet reads a task set in the wire form into *in, which must be
// zero. The platform comes before the tasks, as every writer puts it;
// the other order declines.
func (s *Scanner) TaskSet(in *TaskSetJSON) {
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(taskSetKeys, &seen) {
		case "platform":
			if in.Tasks != nil {
				s.fail = true
			}
			s.platform(&in.Platform)
		case "tasks":
			in.Tasks = []TaskJSON{}
			s.Open('[')
			for s.More(']') {
				in.Tasks = append(in.Tasks, TaskJSON{})
				s.task(&in.Tasks[len(in.Tasks)-1])
			}
		}
	}
}

func (s *Scanner) platform(p *Platform) {
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(platformKeys, &seen) {
		case "NumCores":
			p.NumCores = s.Int()
		case "Cache":
			s.cache(&p.Cache)
		case "DMem":
			p.DMem = s.Int64()
		case "SlotSize":
			p.SlotSize = s.Int()
		case "RegBudget":
			p.RegBudget = s.Int64()
		case "RegPeriod":
			p.RegPeriod = s.Int64()
		case "L2":
			s.cache(&p.L2)
		case "DL2":
			p.DL2 = s.Int64()
		}
	}
}

func (s *Scanner) cache(c *CacheConfig) {
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(cacheKeys, &seen) {
		case "NumSets":
			c.NumSets = s.Int()
		case "BlockSizeBytes":
			c.BlockSizeBytes = s.Int()
		case "Associativity":
			c.Associativity = s.Int()
		}
	}
}

func (s *Scanner) task(t *TaskJSON) {
	var seen uint64
	s.Open('{')
	for s.More('}') {
		switch s.Key(taskKeys, &seen) {
		case "name":
			t.Name = s.Str()
		case "core":
			t.Core = s.Int()
		case "priority":
			t.Priority = s.Int()
		case "pd":
			t.PD = s.Int64()
		case "md":
			t.MD = s.Int64()
		case "mdr":
			t.MDr = s.Int64()
		case "period":
			t.Period = s.Int64()
		case "deadline":
			t.Deadline = s.Int64()
		case "ucb":
			t.UCB = s.indexList()
		case "ecb":
			t.ECB = s.indexList()
		case "pcb":
			t.PCB = s.indexList()
		}
	}
}
