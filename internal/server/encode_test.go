package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// fuzzResults builds a []*core.Result from fuzzed fields. The low bits
// of shape pick the nil cases json.Marshal renders as null: the whole
// slice, one result, one result's Tasks; bit 3 gives a result an empty,
// non-nil Tasks.
func fuzzResults(names [2]string, ints [2]int64, flags [2]bool, shape uint8) []*core.Result {
	if shape&1 != 0 {
		return nil
	}
	task := func(k int) core.TaskResult {
		return core.TaskResult{
			Name: names[k], Priority: int(ints[k]), Core: int(ints[1-k] % 64),
			WCRT: ints[k] ^ ints[1-k], Deadline: -ints[k],
			Schedulable: flags[k], Verified: flags[1-k],
		}
	}
	rs := []*core.Result{{
		Schedulable: flags[0], Complete: flags[1], OuterIterations: int(ints[0]),
		Tasks: []core.TaskResult{task(0), task(1)},
	}}
	if shape&2 != 0 {
		rs = append(rs, nil)
	}
	if shape&4 != 0 {
		rs = append(rs, &core.Result{Schedulable: flags[1], OuterIterations: int(ints[1])})
	}
	if shape&8 != 0 {
		rs = append(rs, &core.Result{Tasks: []core.TaskResult{}})
	}
	return rs
}

// encoded is what json.Encoder writes for v: the reference form of
// every success envelope.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAppendResults holds the hand-written encoders to encoding/json:
// appendResults must equal json.Marshal on results with fuzzed names,
// integers, flags and nil shapes, and the success envelopes built on
// its bytes must equal json.Encoder's rendering of the wire structs.
func FuzzAppendResults(f *testing.F) {
	f.Add("tau1", "t_02", int64(17), int64(120), true, false, uint8(0))
	f.Add("τ1 <bus&mem>", "Zürich \"hot\"", int64(-3), int64(1)<<62, false, true, uint8(2))
	f.Add("line\u2028para\u2029", "bad\xffutf8\x00\x1f\t\\", int64(-1)<<63, int64(0), true, true, uint8(14))
	f.Add("", "\x7fa>b", int64(0), int64(-1), false, false, uint8(0))
	f.Add("t", "", int64(1), int64(2), true, true, uint8(1))
	f.Fuzz(func(t *testing.T, name1, name2 string, a, b int64, s, v bool, shape uint8) {
		rs := fuzzResults([2]string{name1, name2}, [2]int64{a, b}, [2]bool{s, v}, shape)
		want, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		raw := appendResults([]byte("prefix"), rs)[len("prefix"):]
		if !bytes.Equal(raw, want) {
			t.Fatalf("appendResults differs from json.Marshal:\ngot:  %s\nwant: %s", raw, want)
		}

		oc := outcome{key: name1, raw: raw, cached: s, coalesced: v}
		if got, want := appendEnvelope(nil, oc, ""), encoded(t, wireAnalyzeResponse{
			Key: oc.key, Cached: oc.cached, Coalesced: oc.coalesced, Results: oc.raw,
		}); !bytes.Equal(got, want) {
			t.Fatalf("analyze envelope:\ngot:  %s\nwant: %s", got, want)
		}
		if name2 != "" {
			if got, want := appendEnvelope(nil, oc, name2), encoded(t, wireDeltaResponse{
				Key: oc.key, BaseKey: name2, Cached: oc.cached, Coalesced: oc.coalesced, Results: oc.raw,
			}); !bytes.Equal(got, want) {
				t.Fatalf("delta envelope:\ngot:  %s\nwant: %s", got, want)
			}
		}
	})
}

// TestNormalizeResultsIsEncoderForm: bytes an edge keeps from a peer
// are rewritten to what the encoder would write for them, so appending
// them verbatim equals encoding them.
func TestNormalizeResultsIsEncoderForm(t *testing.T) {
	peer := json.RawMessage("[ {\"Name\" : \"a<b>&c \",\n \"WCRT\": 1} ,null ]")
	got, err := normalizeResults(peer)
	if err != nil {
		t.Fatal(err)
	}
	oc := outcome{key: "k", raw: got}
	if env, want := appendEnvelope(nil, oc, ""), encoded(t, wireAnalyzeResponse{Key: "k", Results: peer}); !bytes.Equal(env, want) {
		t.Fatalf("normalized bytes do not reproduce the encoder:\ngot:  %s\nwant: %s", env, want)
	}
	if _, err := normalizeResults(json.RawMessage("[1,")); err == nil {
		t.Error("normalizeResults accepted bytes that are not JSON")
	}
}
