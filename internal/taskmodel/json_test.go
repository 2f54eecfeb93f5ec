package taskmodel

import (
	"encoding/json"
	"reflect"
	"testing"
)

// indexListInputs are the index-list spellings the fast path must
// either read exactly as encoding/json's []int decoder does or hand
// over to it: the plain form with every kind of whitespace, and each
// form outside it.
var indexListInputs = []string{
	`[]`, `[ ]`, "[\n\t\r ]", `[0]`, `[1,2,3]`, ` [ 1 , 2 ] `, "[\n1\t,\r2 ]",
	`[3,1,2,2]`, `[123456789012345]`, `[1234567890123456]`,
	`[12345678901234567890]`, `[9223372036854775807]`, `[9223372036854775808]`,
	`null`, `[null]`, `[1,null,2]`, `[-1]`, `[-0]`, `[1.0]`, `[1e2]`, `[1E2]`, `[0.5]`,
	`["1"]`, `[true]`, `[[1]]`, `[{}]`, `{}`, `"x"`, `1`,
	`[01]`, `[1,]`, `[,1]`, `[1 2]`, `[`, ``,
}

func sliceDecode(in string) ([]int, error) {
	var s []int
	err := json.Unmarshal([]byte(in), &s)
	return s, err
}

func listDecode(in string) ([]int, error) {
	var l IndexList
	err := json.Unmarshal([]byte(in), &l)
	return l, err
}

// TestIndexListMatchesSliceDecode: every input decodes to the same
// value and the same error as a plain []int.
func TestIndexListMatchesSliceDecode(t *testing.T) {
	for _, in := range indexListInputs {
		want, wantErr := sliceDecode(in)
		got, gotErr := listDecode(in)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Errorf("%q: error %v, want %v", in, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%q: decoded %#v, want %#v", in, got, want)
		}
	}
}

// TestIndexListInDocument: inside a struct the fallback's errors name
// the field, and a repeated key keeps only its last value, as for
// []int. The two document types share a name so the texts can match.
// Values are compared on success only: a failed decode's partial
// result is discarded by every caller.
func TestIndexListInDocument(t *testing.T) {
	sliceDoc := func(in string) (any, error) {
		type doc struct {
			UCB []int `json:"ucb"`
			MD  int64 `json:"md"`
		}
		var d doc
		err := json.Unmarshal([]byte(in), &d)
		return []any{d.UCB, d.MD}, err
	}
	listDoc := func(in string) (any, error) {
		type doc struct {
			UCB IndexList `json:"ucb"`
			MD  int64     `json:"md"`
		}
		var d doc
		err := json.Unmarshal([]byte(in), &d)
		return []any{[]int(d.UCB), d.MD}, err
	}
	for _, in := range []string{
		`{"ucb":[1,2],"md":3}`, `{"UCB":[1]}`, `{"uCb":[4]}`,
		`{"ucb":[1,2],"ucb":[5]}`, `{"ucb":[1,2],"ucb":null}`, `{"ucb":null,"ucb":[]}`,
		`{"ucb":["a"]}`, `{"ucb":[1.5],"md":2}`, `{"ucb":[-3]}`, `{"ucb":{}}`,
		`{"ucb":[99999999999999999999]}`,
	} {
		want, wantErr := sliceDoc(in)
		got, gotErr := listDoc(in)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Errorf("%s: error %v, want %v", in, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %v, want %v", in, got, want)
		}
	}
}

// TestIndexListDirectCall: called directly on bytes encoding/json never
// checked, the decoder still rejects what is not JSON rather than
// reading it on the fast path.
func TestIndexListDirectCall(t *testing.T) {
	for _, in := range []string{`[01]`, `[1,]`, `[1 2]`, `[1]x`, `[`} {
		var l IndexList
		if err := l.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q: accepted as %v", in, l)
		}
	}
}
