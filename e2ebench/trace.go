package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
)

// tracer records the benchmark's own spans: one around every call the
// benchmark makes into a layer (workload, experiments.Fig3a, the
// Options.Analyze hook, a client request, the node handler middleware
// and a forwarded hop's handler). Spans go to a telemetry.TraceRecorder
// for the Chrome trace export and, with parent links, to an in-memory
// list from which per-layer self time is computed. A nil *tracer
// records nothing.
type tracer struct {
	rec   *telemetry.TraceRecorder
	epoch time.Time

	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	layer      string
	start, end time.Duration // since epoch
	parent     int           // index into spans, -1 for a root
}

// span is an open span; the zero value (from a nil tracer) is a no-op.
type span struct {
	t     *tracer
	id    int
	tsp   telemetry.Span
	args  map[string]any
	begun time.Time
}

func newTracer() *tracer {
	return &tracer{rec: telemetry.NewTraceRecorder(), epoch: time.Now()}
}

// track returns a trace swimlane; nil on a nil tracer.
func (t *tracer) track(name string) *telemetry.Track {
	if t == nil {
		return nil
	}
	return t.rec.Track(name)
}

// begin opens a span of the given layer under parent (-1 for a root).
func (t *tracer) begin(tk *telemetry.Track, layer, name string, parent int) span {
	if t == nil {
		return span{id: -1}
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{layer: layer, start: now.Sub(t.epoch), end: -1, parent: parent})
	t.mu.Unlock()
	return span{t: t, id: id, tsp: tk.Begin(name, layer), begun: now}
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans[s.id].end = now.Sub(s.t.epoch)
	parent := s.t.spans[s.id].parent
	s.t.mu.Unlock()
	args := s.args
	if args == nil {
		args = map[string]any{}
	}
	args["span"], args["parent"] = s.id, parent
	s.tsp.EndArgs(args)
	return now.Sub(s.begun)
}

// record adds an already-finished span (measured by the caller, e.g.
// a sweep operation whose start is known only at its end).
func (t *tracer) record(layer string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{layer: layer, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent})
	t.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes aggregates span durations per layer. A span's self time is
// its duration minus the part of its interval covered by its children
// (the union, so overlapping children running on other goroutines are
// not subtracted twice). Unclosed spans are skipped.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end < 0 {
				continue
			}
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		dur := s.end - s.start
		self := dur - unionLen(iv)
		r := rows[s.layer]
		if r == nil {
			r = &layerTime{layer: s.layer}
			rows[s.layer] = r
		}
		r.spans++
		r.total += dur
		r.self += self
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].layer < out[b].layer })
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSelfTimes prints the per-layer self-time table.
func writeSelfTimes(w io.Writer, rows []layerTime) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tspans\ttotal_ms\tself_ms\tself_ms/span")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.4f\n", r.layer, r.spans, ms(r.total), ms(r.self), ms(r.self)/float64(max(r.spans, 1)))
	}
	_ = tw.Flush()
}

// export writes the Chrome trace JSON under dir and returns its path.
func (t *tracer) export(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.rec.WriteJSON(f, nil); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
