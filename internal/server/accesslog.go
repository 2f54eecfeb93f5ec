package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Request-level observability: every non-pprof request gets an ID, a
// stage timer and a per-request info record, carried through the
// handlers via the request context. The instrument middleware opens
// them, the handlers annotate them (verdict, cache/memo attribution,
// stage charges), and on the way out the middleware flushes the stage
// durations into the shared histograms and emits one structured access
// log line. With no access-log writer configured the log line is
// skipped but the histograms still fill — /metrics works either way.

// reqInfo is the mutable per-request record. The handler writes it and
// the middleware reads it once the handler returns; all mutators lock
// so that holds from any goroutine the request's work runs on. Every
// method is nil-safe because handlers can be exercised without the
// middleware (direct mux tests).
type reqInfo struct {
	id string
	st *telemetry.StageTimer

	mu        sync.Mutex
	verdict   string
	cacheHits int64 // result-cache hits
	memoHits  int64 // engine table+curve memo hits, leader-attributed
	analyses  int64 // engine invocations this request led
	coalesced int64 // waits that joined another request's flight
}

type ctxKeyReqInfo struct{}

func withReqInfo(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, ctxKeyReqInfo{}, ri)
}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(ctxKeyReqInfo{}).(*reqInfo)
	return ri
}

// stageTimer returns the request's timer; nil (a no-op timer) when the
// middleware did not run.
func (ri *reqInfo) stageTimer() *telemetry.StageTimer {
	if ri == nil {
		return nil
	}
	return ri.st
}

// setVerdict records how the request resolved. The last write wins:
// the analyze path sets fresh, cached, coalesced or its failure, and a
// handler may then override that with how the request as a whole
// resolved (degraded, delta, proxied).
func (ri *reqInfo) setVerdict(v string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.verdict = v
	ri.mu.Unlock()
}

func (ri *reqInfo) addCacheHit() {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.cacheHits++
	ri.mu.Unlock()
}

func (ri *reqInfo) addCoalesced() {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.coalesced++
	ri.mu.Unlock()
}

// addEngine folds one engine invocation's per-request child metrics
// into the record: the memo families (table columns + curve backbones)
// are the reuse signal the access log wants per request. A nil child
// (access logging off) counts only the invocation.
func (ri *reqInfo) addEngine(child *telemetry.Metrics) {
	if ri == nil {
		return
	}
	var hits int64
	if child != nil {
		hits = child.Get(telemetry.CtrMemoHits) + child.Get(telemetry.CtrCurveMemoHits)
	}
	ri.mu.Lock()
	ri.analyses++
	ri.memoHits += hits
	ri.mu.Unlock()
}

// requestIDRe accepts client-supplied X-Request-ID values that are safe
// to echo into headers and logs; anything else is replaced.
var requestIDRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// requestID returns the client's X-Request-ID when it is well-formed,
// otherwise a fresh 8-byte random hex ID.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); requestIDRe.MatchString(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the status code and body size on their way to
// the client.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// accessEntry is one access-log line. The JSON field set is the schema
// documented in DESIGN.md §13; the text format renders the same fields
// as key=value pairs.
type accessEntry struct {
	Time    string           `json:"time"`
	ID      string           `json:"id"`
	Method  string           `json:"method"`
	Path    string           `json:"path"`
	Status  int              `json:"status"`
	Verdict string           `json:"verdict"`
	Bytes   int64            `json:"bytes"`
	DurUS   int64            `json:"dur_us"`
	Stages  map[string]int64 `json:"stages,omitempty"`
	Cache   int64            `json:"cache_hits,omitempty"`
	Memo    int64            `json:"memo_hits,omitempty"`
	Runs    int64            `json:"analyses,omitempty"`
	Shared  int64            `json:"coalesced,omitempty"`
}

// accessLogger serializes access-log lines onto one writer.
type accessLogger struct {
	mu     sync.Mutex
	w      io.Writer
	format string // "json" or "text"
}

func newAccessLogger(w io.Writer, format string) *accessLogger {
	if w == nil {
		return nil
	}
	if format != "text" {
		format = "json"
	}
	return &accessLogger{w: w, format: format}
}

func (l *accessLogger) log(e accessEntry) {
	if l == nil {
		return
	}
	var line []byte
	if l.format == "json" {
		line, _ = json.Marshal(e)
	} else {
		var b strings.Builder
		fmt.Fprintf(&b, "%s id=%s method=%s path=%s status=%d verdict=%s bytes=%d dur_us=%d",
			e.Time, e.ID, e.Method, e.Path, e.Status, e.Verdict, e.Bytes, e.DurUS)
		stages := make([]string, 0, len(e.Stages))
		for s := range e.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			fmt.Fprintf(&b, " stage.%s_us=%d", s, e.Stages[s])
		}
		if e.Cache > 0 {
			fmt.Fprintf(&b, " cache_hits=%d", e.Cache)
		}
		if e.Memo > 0 {
			fmt.Fprintf(&b, " memo_hits=%d", e.Memo)
		}
		if e.Runs > 0 {
			fmt.Fprintf(&b, " analyses=%d", e.Runs)
		}
		if e.Shared > 0 {
			fmt.Fprintf(&b, " coalesced=%d", e.Shared)
		}
		line = []byte(b.String())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%s\n", line)
}

// instrument wraps the mux with the request-level observability layer:
// request ID, in-flight gauge, stage timer, optional request span, and
// the access log line. pprof traffic passes through untouched.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
			next.ServeHTTP(w, r)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		ri := &reqInfo{id: requestID(r), st: s.obs.StartStages()}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-ID", ri.id)
		sp := s.obs.Span("request "+r.URL.Path, "server")
		start := time.Now()

		next.ServeHTTP(sw, r.WithContext(withReqInfo(r.Context(), ri)))

		durs := ri.st.Finish()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		ri.mu.Lock()
		verdict := ri.verdict
		cacheHits, memoHits := ri.cacheHits, ri.memoHits
		analyses, coalesced := ri.analyses, ri.coalesced
		ri.mu.Unlock()
		if verdict == "" {
			verdict = "-" // non-analysis endpoint (healthz, metrics)
		}
		sp.EndArgs(map[string]any{"id": ri.id, "status": sw.status, "verdict": verdict})
		if s.access == nil {
			return
		}
		stages := make(map[string]int64, len(durs))
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			if d := durs[st]; d > 0 {
				stages[st.String()] = d.Microseconds()
			}
		}
		s.access.log(accessEntry{
			Time:    start.UTC().Format(time.RFC3339Nano),
			ID:      ri.id,
			Method:  r.Method,
			Path:    r.URL.Path,
			Status:  sw.status,
			Verdict: verdict,
			Bytes:   sw.bytes,
			DurUS:   time.Since(start).Microseconds(),
			Stages:  stages,
			Cache:   cacheHits,
			Memo:    memoHits,
			Runs:    analyses,
			Shared:  coalesced,
		})
	})
}
