package taskmodel

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// indexListInputs are index-list spellings, each marked plain when the
// scanner reads it: the plain form with every kind of whitespace, and
// each form outside it, which the scanner declines and leaves to
// encoding/json's []int decoder.
var indexListInputs = []struct {
	in    string
	plain bool
}{
	{`[]`, true}, {`[ ]`, true}, {"[\n\t\r ]", true}, {`[0]`, true}, {`[1,2,3]`, true},
	{` [ 1 , 2 ] `, true}, {"[\n1\t,\r2 ]", true}, {`[3,1,2,2]`, true}, {`[-1]`, false},
	{`[123456789012345]`, true}, {`[123456789012345678]`, true}, {`[-123456789012345678]`, false},
	{`[1234567890123456789]`, false}, {`[12345678901234567890]`, false},
	{`[9223372036854775807]`, false}, {`[9223372036854775808]`, false},
	{`null`, false}, {`[null]`, false}, {`[1,null,2]`, false}, {`[-0]`, false}, {`[1.0]`, false},
	{`[1e2]`, false}, {`[1E2]`, false}, {`[0.5]`, false}, {`["1"]`, false}, {`[true]`, false},
	{`[[1]]`, false}, {`[{}]`, false}, {`{}`, false}, {`"x"`, false}, {`1`, false},
	{`[01]`, false}, {`[1,]`, false}, {`[,1]`, false}, {`[1 2]`, false}, {`[`, false}, {``, false},
}

func sliceDecode(in string) ([]int, error) {
	var s []int
	err := json.Unmarshal([]byte(in), &s)
	return s, err
}

// scanList reads in as one index list; ok=false means the scanner
// declined it.
func scanList(in string) (l []int, ok bool) {
	s := NewScanner([]byte(in))
	l = s.indexList()
	return l, s.End()
}

// TestIndexListMatchesSliceDecode: the scanner reads exactly the plain
// inputs, each to the value a plain []int decodes.
func TestIndexListMatchesSliceDecode(t *testing.T) {
	for _, c := range indexListInputs {
		got, ok := scanList(c.in)
		if ok != c.plain {
			t.Errorf("%q: scanner accepted=%v, want %v", c.in, ok, c.plain)
			continue
		}
		if !ok {
			continue
		}
		want, err := sliceDecode(c.in)
		if err != nil {
			t.Errorf("%q: scanned as %v, but []int decode fails: %v", c.in, got, err)
			continue
		}
		if !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%q: scanned %#v, want %#v", c.in, got, want)
		}
	}
}

// TestIndexListInDocument: inside a task-set document every spelling of
// an index list decodes as a plain []int does — the plain ones on the
// scanner, the rest on ReadJSON's encoding/json fallback — and a
// repeated key keeps only its last value.
func TestIndexListInDocument(t *testing.T) {
	const doc = `{"platform":{"NumCores":1,"Cache":{"NumSets":4,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":0,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "ucb":UCB,"ecb":[0,1,2,3],"pcb":[]}]}`
	var docs []string
	for _, c := range indexListInputs {
		docs = append(docs, strings.Replace(doc, "UCB", c.in, 1))
	}
	docs = append(docs,
		strings.Replace(doc, `"ucb":UCB`, `"ucb":[1,2],"ucb":[3]`, 1),
		strings.Replace(doc, `"ucb":UCB`, `"ucb":[1,2],"ucb":null`, 1),
		strings.Replace(doc, `"ucb":UCB`, `"UCB":[1]`, 1),
	)
	for _, d := range docs {
		got, err := ReadJSON(strings.NewReader(d))
		want, wantErr := readJSONSlices(d)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: error %v, []int decode error %v", d, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", d, got, want)
		}
	}
}

// TestIndexListDirectCall: the list grammar, called on bytes nothing
// checked beforehand, declines what is not JSON rather than reading it.
func TestIndexListDirectCall(t *testing.T) {
	for _, in := range []string{`[01]`, `[1,]`, `[1 2]`, `[1]x`, `[`, `[1`, `[-]`, `[--1]`, `[1]]`} {
		if l, ok := scanList(in); ok {
			t.Errorf("%q: accepted as %v", in, l)
		}
	}
}

// TestScannerKeysMatchFields: the scanner's key lists are the JSON
// names of the fields they fill, so no field of the wire form sends a
// file or body to the fallback.
func TestScannerKeysMatchFields(t *testing.T) {
	for _, c := range []struct {
		keys []string
		typ  reflect.Type
	}{
		{taskSetKeys, reflect.TypeOf(TaskSetJSON{})},
		{platformKeys, reflect.TypeOf(Platform{})},
		{cacheKeys, reflect.TypeOf(CacheConfig{})},
		{taskKeys, reflect.TypeOf(TaskJSON{})},
	} {
		var names []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			names = append(names, name)
		}
		if !reflect.DeepEqual(c.keys, names) {
			t.Errorf("%v: scanner keys %q, fields %q", c.typ, c.keys, names)
		}
	}
}
