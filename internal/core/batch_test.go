package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/telemetry"
)

// isolationReqs builds a small batch over the paper example.
func isolationReqs(n int) []BatchRequest {
	reqs := make([]BatchRequest, n)
	for i := range reqs {
		reqs[i] = BatchRequest{
			TS:    fixtures.Fig1TaskSet(),
			Cfgs:  []Config{{Arbiter: FP}, {Arbiter: FP, Persistence: true}},
			Label: "job-" + string(rune('a'+i)),
		}
	}
	return reqs
}

// TestIsolatePanicRetriesOnReference: a panic in the optimized engine
// is recovered, the job is retried on the naive reference analyzer,
// and — the reference surviving — the batch returns a full result set
// with sweep.job_panics == 1 and no failures.
func TestIsolatePanicRetriesOnReference(t *testing.T) {
	SetBatchFaultHook(func(label string, attempt int) {
		if label == "job-b" && attempt == 0 {
			panic("injected engine fault")
		}
	})
	defer SetBatchFaultHook(nil)

	obs := telemetry.New()
	reqs := isolationReqs(3)
	out, err := AnalyzeBatchOpts(reqs, BatchOptions{Workers: 2, Observer: obs})
	if err != nil {
		t.Fatalf("AnalyzeBatchOpts: %v", err)
	}
	for i, res := range out {
		if res == nil {
			t.Fatalf("request %d has no result (reference retry should have rescued it)", i)
		}
		if len(res) != 2 || !res[0].Schedulable {
			t.Fatalf("request %d: unexpected results %+v", i, res)
		}
	}
	if got := obs.Metrics.Get(telemetry.CtrJobPanics); got != 1 {
		t.Errorf("sweep.job_panics = %d, want 1", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrJobFailures); got != 0 {
		t.Errorf("sweep.job_failures = %d, want 0", got)
	}
}

// TestIsolatePanicTwiceRecordsFailure: when the reference retry
// panics as well, exactly that job is marked failed (nil result slot,
// OnFailure with the original stack) and every other job completes.
func TestIsolatePanicTwiceRecordsFailure(t *testing.T) {
	SetBatchFaultHook(func(label string, attempt int) {
		if label == "job-c" {
			panic("deterministic fault")
		}
	})
	defer SetBatchFaultHook(nil)

	obs := telemetry.New()
	var mu sync.Mutex
	type failure struct {
		label string
		err   error
		stack []byte
	}
	var failures []failure
	reqs := isolationReqs(4)
	out, err := AnalyzeBatchOpts(reqs, BatchOptions{
		Workers: 2, Observer: obs,
		OnFailure: func(i int, label string, err error, stack []byte) {
			mu.Lock()
			failures = append(failures, failure{label, err, stack})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("AnalyzeBatchOpts: %v", err)
	}
	for i, res := range out {
		if reqs[i].Label == "job-c" {
			if res != nil {
				t.Errorf("failed job has results %+v", res)
			}
			continue
		}
		if res == nil {
			t.Errorf("healthy job %s lost its result", reqs[i].Label)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("OnFailure called %d times, want 1", len(failures))
	}
	f := failures[0]
	if f.label != "job-c" {
		t.Errorf("failure label = %q, want job-c", f.label)
	}
	if f.err == nil || !strings.Contains(f.err.Error(), "deterministic fault") {
		t.Errorf("failure error %v does not name the panic", f.err)
	}
	if len(f.stack) == 0 {
		t.Error("failure carries no stack")
	}
	if got := obs.Metrics.Get(telemetry.CtrJobPanics); got != 1 {
		t.Errorf("sweep.job_panics = %d, want 1 (retry panic not double-counted)", got)
	}
	if got := obs.Metrics.Get(telemetry.CtrJobFailures); got != 1 {
		t.Errorf("sweep.job_failures = %d, want 1", got)
	}
}

// TestIsolateIdenticalResults: on a healthy batch, isolation must not
// change any result — the batch equals AnalyzeAll request by request.
func TestIsolateIdenticalResults(t *testing.T) {
	reqs := isolationReqs(3)
	isolated, err := AnalyzeBatchOpts(reqs, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		plain, err := AnalyzeAll(req.TS, req.Cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, isolated[i]) {
			t.Errorf("request %d: batch results differ from AnalyzeAll", i)
		}
	}
}
