package core

import (
	"crypto/sha256"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cacheset"
	"repro/internal/crpd"
	"repro/internal/persistence"
	"repro/internal/taskmodel"
	"repro/internal/telemetry"
)

// memoConfigs extends the differential grid with every CRPD approach:
// the γ column keys fold in the approach (and, under ECBOnly, the
// selfLast shape), so the memo must be exercised beyond the default
// ECB-union of the base grid.
func memoConfigs() []Config {
	cfgs := differentialConfigs()
	for _, ap := range []crpd.Approach{
		crpd.UCBOnly, crpd.ECBOnly, crpd.UCBUnion, crpd.Combined,
	} {
		cfgs = append(cfgs,
			Config{Arbiter: FP, Persistence: false, CRPD: ap},
			Config{Arbiter: FP, Persistence: true, CRPD: ap},
			Config{Arbiter: RR, Persistence: true, CRPD: ap},
		)
	}
	return cfgs
}

// cloneTasks shallow-copies the task structs (the cache sets are never
// mutated, so sharing them is safe).
func cloneTasks(ts *taskmodel.TaskSet) []*taskmodel.Task {
	tasks := make([]*taskmodel.Task, len(ts.Tasks))
	for i, t := range ts.Tasks {
		c := *t
		tasks[i] = &c
	}
	return tasks
}

// perturbPD returns a copy of ts with task i's processing demand
// shifted — the classic one-task DSE sweep edit, touching no field any
// table column depends on.
func perturbPD(ts *taskmodel.TaskSet, i int, delta taskmodel.Time) *taskmodel.TaskSet {
	tasks := cloneTasks(ts)
	tasks[i].PD += delta
	if tasks[i].PD < 1 {
		tasks[i].PD = 1
	}
	return taskmodel.NewTaskSet(ts.Platform, tasks)
}

// perturbUCB returns a copy of ts with one cache-set index dropped from
// task i's UCB — an edit that invalidates exactly the γ columns whose
// prefix contains task i. Returns nil when the task has no UCB to drop.
func perturbUCB(ts *taskmodel.TaskSet, i int) *taskmodel.TaskSet {
	idx := ts.Tasks[i].UCB.Indices()
	if len(idx) == 0 {
		return nil
	}
	tasks := cloneTasks(ts)
	tasks[i].UCB = cacheset.FromSorted(ts.Platform.Cache.NumSets, idx[1:])
	return taskmodel.NewTaskSet(ts.Platform, tasks)
}

// TestDifferentialMemo pins the memoized fills bit-identical to the
// plain path: for every corpus entry and config — all arbiters, CPRO
// and CRPD approaches — a cold store, a warm store (second run against
// the same store, all hits) and the memo-free baseline must agree
// exactly.
func TestDifferentialMemo(t *testing.T) {
	count := 24
	if testing.Short() {
		count = 6
	}
	cfgs := memoConfigs()
	for si, ts := range differentialCorpus(t, count) {
		want, err := AnalyzeAll(ts, cfgs)
		if err != nil {
			t.Fatalf("set %d: AnalyzeAll: %v", si, err)
		}
		store := NewMemoStore(0)
		for pass := 0; pass < 2; pass++ {
			got, err := analyzeAllObs(ts, cfgs, nil, store)
			if err != nil {
				t.Fatalf("set %d pass %d: analyzeAllObs: %v", si, pass, err)
			}
			for ci := range cfgs {
				if !reflect.DeepEqual(got[ci], want[ci]) {
					t.Fatalf("set %d pass %d %+v: memoized result diverges\n memo: %+v\n plain: %+v",
						si, pass, cfgs[ci], got[ci], want[ci])
				}
			}
		}
	}
}

// TestDifferentialMemoPerturbed shares one store across a family of
// one-task edits — the delta workload. A UCB edit must invalidate the
// affected columns (no stale reuse), and every variant must still
// match its memo-free analysis exactly.
func TestDifferentialMemoPerturbed(t *testing.T) {
	cfgs := memoConfigs()
	store := NewMemoStore(0)
	checked := 0
	for si, base := range differentialCorpus(t, 4) {
		variants := []*taskmodel.TaskSet{base}
		for i := range base.Tasks {
			variants = append(variants, perturbPD(base, i, taskmodel.Time(i+1)))
			if v := perturbUCB(base, i); v != nil {
				variants = append(variants, v)
			}
		}
		for vi, ts := range variants {
			want, err := AnalyzeAll(ts, cfgs)
			if err != nil {
				t.Fatalf("set %d variant %d: AnalyzeAll: %v", si, vi, err)
			}
			got, err := analyzeAllObs(ts, cfgs, nil, store)
			if err != nil {
				t.Fatalf("set %d variant %d: analyzeAllObs: %v", si, vi, err)
			}
			for ci := range cfgs {
				if !reflect.DeepEqual(got[ci], want[ci]) {
					t.Fatalf("set %d variant %d %+v: shared-store result diverges",
						si, vi, cfgs[ci])
				}
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d variants exercised; corpus too small", checked)
	}
}

// TestMemoComputeOnceConcurrent runs many concurrent analyses of the
// same task set against one store and asserts each column was computed
// exactly once: the concurrent miss total must equal a solo cold run's,
// with the remainder served as hits or waits. Run under -race this
// also proves the publish/consume edges of the store.
func TestMemoComputeOnceConcurrent(t *testing.T) {
	ts := differentialCorpus(t, 1)[0]
	cfgs := memoConfigs()

	solo := telemetry.New()
	if _, err := analyzeAllObs(ts, cfgs, solo, NewMemoStore(0)); err != nil {
		t.Fatal(err)
	}
	soloMisses := solo.Metrics.Get(telemetry.CtrMemoMisses)
	if soloMisses == 0 {
		t.Fatal("solo run recorded no memo misses; fills are not reaching the store")
	}

	store := NewMemoStore(0)
	obs := telemetry.New()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = analyzeAllObs(ts, cfgs, obs, store)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := obs.Metrics.Get(telemetry.CtrMemoMisses); got != soloMisses {
		t.Errorf("concurrent misses = %d, want exactly the solo cold run's %d (each column computed once)",
			got, soloMisses)
	}
	if hits := obs.Metrics.Get(telemetry.CtrMemoHits) + obs.Metrics.Get(telemetry.CtrMemoWaits); hits == 0 {
		t.Error("no hits or waits recorded across concurrent duplicate analyses")
	}
}

// TestCurveMemoComputeOnceConcurrent is the curve-level analogue of
// TestMemoComputeOnceConcurrent, through the batch front door: many
// AnalyzeBatchOpts workers analyzing the same task set against one
// shared store must together miss each curve backbone exactly as often
// as a solo cold run does — every backbone materialized once, the rest
// of the demand served as hits or waits — and return bit-identical
// results. Under -race this also proves the publish/consume edges of
// the shared backbones themselves, which workers read copy-free.
func TestCurveMemoComputeOnceConcurrent(t *testing.T) {
	ts := differentialCorpus(t, 1)[0]
	cfgs := memoConfigs()
	want, err := AnalyzeAll(ts, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	solo := telemetry.New()
	if _, err := analyzeAllObs(ts, cfgs, solo, NewMemoStore(0)); err != nil {
		t.Fatal(err)
	}
	soloCurves := solo.Metrics.Get(telemetry.CtrCurveMemoMisses)
	if soloCurves == 0 {
		t.Fatal("solo run materialized no memoized curves; backbones are not reaching the store")
	}

	const workers = 8
	reqs := make([]BatchRequest, workers)
	for i := range reqs {
		reqs[i] = BatchRequest{TS: ts, Cfgs: cfgs}
	}
	obs := telemetry.New()
	out, err := AnalyzeBatchOpts(reqs, BatchOptions{Workers: workers, Observer: obs, Memo: NewMemoStore(0)})
	if err != nil {
		t.Fatal(err)
	}
	for w := range out {
		for ci := range cfgs {
			if !reflect.DeepEqual(out[w][ci], want[ci]) {
				t.Fatalf("worker %d %+v: shared-store result diverges from memo-free analysis", w, cfgs[ci])
			}
		}
	}
	if got := obs.Metrics.Get(telemetry.CtrCurveMemoMisses); got != soloCurves {
		t.Errorf("concurrent curve misses = %d, want exactly the solo cold run's %d (each backbone computed once)",
			got, soloCurves)
	}
	if hw := obs.Metrics.Get(telemetry.CtrCurveMemoHits) + obs.Metrics.Get(telemetry.CtrCurveMemoWaits); hw == 0 {
		t.Error("no curve hits or waits recorded across concurrent duplicate analyses")
	}
}

// TestResponseTimeZeroAllocMemo repeats the zero-alloc pin of the warm
// re-evaluation path with a memo store attached: once the warm-up Run
// has materialized every backbone (hitting or filling the store),
// ResponseTime must not touch the store, hash a key or allocate — the
// memoized and plain warm paths are the same code over the same
// cursors.
func TestResponseTimeZeroAllocMemo(t *testing.T) {
	store := NewMemoStore(0)
	for _, cfg := range []Config{
		{Arbiter: FP, Persistence: true, CPRO: persistence.MultisetUnion},
		{Arbiter: RR, Persistence: true, CPRO: persistence.Union},
		{Arbiter: TDMA, Persistence: false},
	} {
		ts := differentialCorpus(t, 1)[0]
		tbl := precomputeTables(ts, cfg.CRPD)
		tbl.setMemo(store)
		a, err := newAnalyzerWithTables(ts, cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if res := a.Run(); !res.Complete {
			t.Fatalf("%+v: warm-up run aborted; pick a schedulable corpus entry", cfg)
		}
		for _, task := range ts.Tasks {
			prio := task.Priority
			if avg := testing.AllocsPerRun(50, func() {
				if _, ok := a.ResponseTime(prio); !ok {
					t.Fatal("warm ResponseTime diverged")
				}
			}); avg != 0 {
				t.Errorf("%+v prio %d: memoized ResponseTime allocates %v times per call, want 0", cfg, prio, avg)
			}
		}
	}
}

// TestMemoSweepRecomputeReduction pins the acceptance criterion: a
// one-task-perturbed sweep against a shared store must recompute at
// least 5× fewer table columns than the memo-free workload (measured
// as cold per-request stores, whose misses equal the plain path's
// column builds).
func TestMemoSweepRecomputeReduction(t *testing.T) {
	base := differentialCorpus(t, 1)[0]
	cfgs := differentialConfigs()
	const steps = 16
	sweep := make([]*taskmodel.TaskSet, steps)
	for i := range sweep {
		sweep[i] = perturbPD(base, len(base.Tasks)/2, taskmodel.Time(i))
	}

	var cold, shared int64
	store := NewMemoStore(0)
	for _, ts := range sweep {
		coldObs, sharedObs := telemetry.New(), telemetry.New()
		if _, err := analyzeAllObs(ts, cfgs, coldObs, NewMemoStore(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := analyzeAllObs(ts, cfgs, sharedObs, store); err != nil {
			t.Fatal(err)
		}
		cold += coldObs.Metrics.Get(telemetry.CtrMemoMisses)
		shared += sharedObs.Metrics.Get(telemetry.CtrMemoMisses)
	}
	if cold == 0 || shared == 0 {
		t.Fatalf("degenerate counts: cold=%d shared=%d", cold, shared)
	}
	if cold < 5*shared {
		t.Errorf("sweep recomputed %d columns against the shared store vs %d cold; want >= 5x reduction",
			shared, cold)
	}
	t.Logf("column recomputations: cold=%d shared=%d (%.1fx reduction)", cold, shared, float64(cold)/float64(shared))
}

// TestMemoStoreLeaderPanic pins the compute-once failure contract: a
// leader whose compute panics must release blocked followers (who then
// compute locally) and must not poison the key — the next requester
// becomes a fresh leader.
func TestMemoStoreLeaderPanic(t *testing.T) {
	store := NewMemoStore(0)
	key := memoKey(sha256.Sum256([]byte("leader-panic")))

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate out of getOrCompute")
			}
		}()
		store.getOrComputeColumn(key, nil, func() *memoColumn {
			close(entered)
			<-release
			panic("injected")
		})
	}()
	<-entered

	followerDone := make(chan *memoColumn, 1)
	local := &memoColumn{gamma: []int64{7}}
	followerObs := telemetry.New()
	go func() {
		followerDone <- store.getOrComputeColumn(key, followerObs, func() *memoColumn { return local })
	}()
	// Only release the leader once the follower is provably parked on
	// the in-flight entry (the wait counter increments before the
	// block); otherwise the follower could arrive after the withdrawal
	// and become a leader that publishes its local column.
	for followerObs.Metrics.Get(telemetry.CtrMemoWaits) == 0 {
		runtime.Gosched()
	}
	close(release)
	<-leaderDone
	if got := <-followerDone; got != local {
		t.Fatalf("follower got %p, want its local fallback %p", got, local)
	}

	// The key must be vacant again: a fresh requester computes and
	// publishes normally.
	obs := telemetry.New()
	fresh := &memoColumn{gamma: []int64{9}}
	if got := store.getOrComputeColumn(key, obs, func() *memoColumn { return fresh }); got != fresh {
		t.Fatal("post-panic requester did not become a fresh leader")
	}
	if obs.Metrics.Get(telemetry.CtrMemoMisses) != 1 {
		t.Error("post-panic requester not counted as a miss")
	}
	if got := store.getOrComputeColumn(key, obs, func() *memoColumn { return nil }); got != fresh {
		t.Fatal("published post-panic column not served to later requesters")
	}
}

// TestMemoStoreBounded pins the capacity contract: the store never
// holds more than its configured entry budget and reports evictions.
func TestMemoStoreBounded(t *testing.T) {
	const cap = 64
	store := NewMemoStore(cap)
	obs := telemetry.New()
	for i := 0; i < 10*cap; i++ {
		key := memoKey(sha256.Sum256([]byte{byte(i), byte(i >> 8)}))
		store.getOrComputeColumn(key, obs, func() *memoColumn { return &memoColumn{} })
	}
	if n := store.Len(); n > cap {
		t.Errorf("store holds %d entries, cap %d", n, cap)
	}
	if obs.Metrics.Get(telemetry.CtrMemoEvictions) == 0 {
		t.Error("no evictions recorded despite 10x-cap inserts")
	}
}
