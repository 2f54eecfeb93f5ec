package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/taskmodel"
)

// liveHeap is the heap still reachable after a full collection. Two
// cycles empty the engine's sync.Pool scratch, which survives one.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// budgetSlack is what the live heap may hold beyond the budget after a
// request: the node's fixed structures and whatever the accounting of
// the two stores leaves out (map growth, allocator rounding). Without
// a bound, the twenty bases of TestMemBudgetBound keep about 20 MB
// alive (store and memo together).
const budgetSlack = 4 << 20

// TestMemBudgetBound pins the budget on the requests that broke the
// entry-counted stores: twenty distinct edit-shape bases (160 tasks,
// 8192 sets, six variants, about 620 KB of store entry each) posted to
// one node. After every post the request store and the memo each hold
// at most their share, and the heap the node keeps alive stays within
// the budget plus budgetSlack.
func TestMemBudgetBound(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes twenty 160-task bases; skipped in -short")
	}
	const budget = 4 << 20
	storeShare, memoShare := splitBudget(budget)
	base := editShapeSet(t)
	heap0 := liveHeap()
	srv := New(Options{MemBudget: budget})
	h := srv.Handler()
	var peak int64
	for i := 1; i <= 20; i++ {
		// Every task's pd lowered by i: a base no earlier post has keyed.
		tasks := make([]*taskmodel.Task, len(base.Tasks))
		for j, tk := range base.Tasks {
			c := *tk
			c.PD -= taskmodel.Time(i)
			tasks[j] = &c
		}
		body := requestBody(t, taskmodel.NewTaskSet(base.Platform, tasks), sixVariants)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("post %d: status %d: %.200s", i, rec.Code, rec.Body.Bytes())
		}
		if got := srv.store.bytes(); got > storeShare {
			t.Errorf("post %d: request store holds %d B, share %d B", i, got, storeShare)
		}
		if got := srv.memo.Bytes(); got > memoShare {
			t.Errorf("post %d: memo holds %d B, share %d B", i, got, memoShare)
		}
		live := liveHeap() - heap0
		peak = max(peak, live)
		if live > budget+budgetSlack {
			t.Errorf("post %d: node keeps %d B of heap alive, budget %d B + slack %d B", i, live, budget, budgetSlack)
		}
	}
	if srv.store.len() >= 20 {
		t.Errorf("store kept all %d bases: the budget never evicted", srv.store.len())
	}
	t.Logf("peak live heap %.1f MB for a %.1f MB budget; store %d entries, memo %d entries",
		float64(peak)/(1<<20), float64(budget)/(1<<20), srv.store.len(), srv.memo.Len())
	runtime.KeepAlive(srv)
}
