package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// Response encoding without encoding/json on the edit path
// (DESIGN.md §11, "Cached bytes are the bytes written"). Analysis
// results are encoded once, by appendResults, into exactly the bytes
// json.Marshal would produce; the cache holds those bytes, and the
// /v1/analyze and /v1/analyze/delta success envelopes append them
// verbatim. That is sound only because every cached value is already
// in the encoder's output form (compact, HTML-escaped): the appender's
// output is, and bytes an edge keeps from a peer are normalized at fill
// (normalizeResults). Error bodies and /metrics still go through
// writeJSON.

// appendResults appends rs as json.Marshal encodes a []*core.Result:
// the same field order, null for a nil slice, nil result or nil Tasks,
// and the same string escaping (appendString).
func appendResults(dst []byte, rs []*core.Result) []byte {
	if rs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, r)
	}
	return append(dst, ']')
}

func appendResult(dst []byte, r *core.Result) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"Schedulable":`...)
	dst = strconv.AppendBool(dst, r.Schedulable)
	dst = append(dst, `,"Tasks":`...)
	if r.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Tasks {
			t := &r.Tasks[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Name":`...)
			dst = appendString(dst, t.Name)
			dst = append(dst, `,"Priority":`...)
			dst = strconv.AppendInt(dst, int64(t.Priority), 10)
			dst = append(dst, `,"Core":`...)
			dst = strconv.AppendInt(dst, int64(t.Core), 10)
			dst = append(dst, `,"WCRT":`...)
			dst = strconv.AppendInt(dst, t.WCRT, 10)
			dst = append(dst, `,"Deadline":`...)
			dst = strconv.AppendInt(dst, t.Deadline, 10)
			dst = append(dst, `,"Schedulable":`...)
			dst = strconv.AppendBool(dst, t.Schedulable)
			dst = append(dst, `,"Verified":`...)
			dst = strconv.AppendBool(dst, t.Verified)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Complete":`...)
	dst = strconv.AppendBool(dst, r.Complete)
	dst = append(dst, `,"OuterIterations":`...)
	dst = strconv.AppendInt(dst, int64(r.OuterIterations), 10)
	return append(dst, '}')
}

// appendString appends s as encoding/json encodes a string. Printable
// ASCII that the encoder leaves alone is copied between quotes; a
// string with anything else (a quote, a backslash, a control byte, an
// HTML character or a byte outside ASCII) is rare in task names and
// keys, and goes through json.Marshal whole.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEnvelope appends the success envelope of /v1/analyze
// (wireAnalyzeResponse) or, when baseKey is set, of /v1/analyze/delta
// (wireDeltaResponse), with the newline json.Encoder ends it with. A
// delta request never has an empty base key, and a resolved outcome
// never has empty results; they are cached bytes, appended verbatim.
func appendEnvelope(dst []byte, oc outcome, baseKey string) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendString(dst, oc.key)
	if baseKey != "" {
		dst = append(dst, `,"base_key":`...)
		dst = appendString(dst, baseKey)
	}
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, oc.cached)
	if oc.coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	dst = append(dst, `,"results":`...)
	dst = append(dst, oc.raw...)
	return append(dst, "}\n"...)
}

// normalizeResults returns peer-sent result bytes in the encoder's
// output form — compacted and HTML-escaped, as json.Encoder would write
// them inside an envelope — so an edge can cache them under the same
// invariant as its own results. It fails on bytes that are not JSON.
func normalizeResults(raw json.RawMessage) (json.RawMessage, error) {
	return json.Marshal(raw)
}

// Encoding buffers are pooled: a response is built in one, written
// whole, and the buffer handed back. Buffers that grew past
// maxPooledBuf are left to the collector.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// writeAppended writes a 200 JSON body that build appends to a pooled
// buffer.
func writeAppended(w http.ResponseWriter, build func([]byte) []byte) {
	buf := getBuf()
	*buf = build((*buf)[:0])
	writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
}

// encodeResults is the cache value for one analysis: appendResults'
// bytes in an exact-size copy, so the cache does not hold the pooled
// buffer's spare capacity.
func encodeResults(rs []*core.Result) json.RawMessage {
	buf := getBuf()
	*buf = appendResults((*buf)[:0], rs)
	raw := make(json.RawMessage, len(*buf))
	copy(raw, *buf)
	putBuf(buf)
	return raw
}
