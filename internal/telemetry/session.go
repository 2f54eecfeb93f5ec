package telemetry

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// SessionOptions selects which instrumentation a command-line run
// collects. The zero value disables everything (Observer() returns
// nil, Close is a no-op) so commands can wire the session
// unconditionally.
type SessionOptions struct {
	// Tool names the process in logs and trace metadata.
	Tool string
	// CPUProfile/MemProfile are runtime/pprof output paths (empty =
	// off), matching the tools' historical -cpuprofile/-memprofile
	// flags.
	CPUProfile, MemProfile string
	// TracePath enables span recording and names the Chrome
	// trace-event JSON file written on Close.
	TracePath string
	// Metrics enables counters/histograms and a summary table on
	// Close. Implied by TracePath: an exported trace always embeds the
	// counter snapshot.
	Metrics bool
	// Verbose installs a Debug-level slog text handler as the default
	// logger, turning the tools' slog.Debug chatter on.
	Verbose bool
	// Out receives the metrics summary (default os.Stderr).
	Out io.Writer
}

// Session owns one run's instrumentation lifecycle: pprof profiles,
// the metrics sink and the trace recorder start together at
// StartSession and flush together at Close.
type Session struct {
	opts     SessionOptions
	obs      *Observer
	stopProf func() error
	closed   bool
}

// StartSession starts profiling and allocates the enabled sinks.
func StartSession(opts SessionOptions) (*Session, error) {
	if opts.Out == nil {
		opts.Out = os.Stderr
	}
	if opts.Verbose {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})))
		slog.Debug("telemetry session starting", "tool", opts.Tool,
			"trace", opts.TracePath, "metrics", opts.Metrics)
	}
	stop, err := StartProfiles(opts.CPUProfile, opts.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{opts: opts, stopProf: stop}
	obs := &Observer{}
	if opts.Metrics || opts.TracePath != "" {
		obs.Metrics = NewMetrics()
	}
	if opts.TracePath != "" {
		obs.Trace = NewTraceRecorder()
	}
	if obs.Metrics != nil || obs.Trace != nil {
		s.obs = obs
	}
	return s, nil
}

// Observer returns the session's observer, or nil when no sink is
// enabled — the nil keeps the analyzer hot path entirely
// uninstrumented.
func (s *Session) Observer() *Observer { return s.obs }

// Close flushes everything: stops profiles, writes the trace file
// (embedding the final counter snapshot and a Perfetto counter track)
// and prints the metrics summary. Close is idempotent.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if err := s.stopProf(); err != nil {
		errs = append(errs, err)
	}
	if s.obs != nil && s.obs.Trace != nil && s.opts.TracePath != "" {
		var final map[string]any
		if s.obs.Metrics != nil {
			counters := s.obs.Metrics.Counters()
			s.obs.Trace.Counters("analyzer", counters)
			final = map[string]any{"tool": s.opts.Tool, "counters": counters}
		}
		f, err := os.Create(s.opts.TracePath)
		if err != nil {
			errs = append(errs, err)
		} else {
			if err := s.obs.Trace.WriteJSON(f, final); err != nil {
				errs = append(errs, err)
			}
			if err := f.Close(); err != nil {
				errs = append(errs, err)
			}
			fmt.Fprintf(s.opts.Out, "%s: wrote trace %s (open at ui.perfetto.dev)\n", s.opts.Tool, s.opts.TracePath)
		}
	}
	if s.opts.Metrics && s.obs != nil && s.obs.Metrics != nil {
		fmt.Fprintf(s.opts.Out, "\n%s telemetry:\n", s.opts.Tool)
		if err := s.obs.Metrics.WriteSummary(s.opts.Out); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
