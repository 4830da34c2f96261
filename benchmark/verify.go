package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	sdquery "repro"
)

// Correctness: every run checks what the program answered against the
// sequential scan over the same rows. A mismatch counts as a failed
// operation and makes the command exit non-zero.

type verifier struct {
	o      options
	rows   [][]float64
	oracle sdquery.Engine
	res    *result
	errs   []string // first few failures, for the log
}

func (v *verifier) failf(format string, args ...any) {
	v.res.Failed++
	if len(v.errs) < 8 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

// tally counts what the load goroutines attempted and what failed outright
// (transport errors, timeouts, any status but 200).
func (v *verifier) tally(lr *loadResult) {
	for _, l := range lr.logs() {
		v.res.Attempted += l.attempted
		v.res.Failed += l.failed
		if l.firstErr != nil && len(v.errs) < 8 {
			v.errs = append(v.errs, fmt.Sprintf("%d operations failed, the first: %v", l.failed, l.firstErr))
		}
	}
}

// checkKept compares the answers kept during the load (one request in
// keepEvery) with the oracle, ID for ID and score for score. On the cluster
// workload rows came and went while the answers were given, so there an
// answer is checked for what is certain: its seed rows, in order, are a
// prefix of the oracle's answer over the seed rows (those are never
// deleted), and every other row is one the writer inserted, scored exactly.
func (v *verifier) checkKept(lr *loadResult) {
	var kept []keptAnswer
	for _, l := range lr.readers {
		kept = append(kept, l.kept...)
	}
	// The scans are the expensive part (25 ms each over a million rows), so
	// they run on every CPU; serve-hot repeats its pool's queries, and one
	// scan per pool entry is enough.
	want := make([][]sdquery.Result, len(kept))
	errs := make([]error, len(kept))
	first := map[int]int{}
	var todo []int
	for i, k := range kept {
		if _, seen := first[k.poolIdx]; seen && k.poolIdx >= 0 {
			continue
		}
		first[k.poolIdx] = i
		todo = append(todo, i)
	}
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(todo); n += workers {
				i := todo[n]
				want[i], errs[i] = v.oracle.TopK(kept[i].q)
			}
		}(w)
	}
	wg.Wait()
	for i, k := range kept {
		if k.poolIdx >= 0 {
			i = first[k.poolIdx]
		}
		switch {
		case errs[i] != nil:
			v.failf("oracle: %v", errs[i])
		case lr.writer != nil:
			if msg := v.checkChurned(k, want[i], lr.writer); msg != "" {
				v.failf("%s", msg)
			}
		case !slices.Equal(k.res, want[i]):
			v.failf("answer differs from the scan: got %v, want %v", k.res, want[i])
		}
	}
}

func (v *verifier) checkChurned(k keptAnswer, want []sdquery.Result, w *writeLog) string {
	seen := 0
	for i, r := range k.res {
		if i > 0 && r.Score > k.res[i-1].Score {
			return fmt.Sprintf("answer not best-first: %v", k.res)
		}
		if r.ID < len(v.rows) {
			if r != want[seen] {
				return fmt.Sprintf("seed rows of the answer %v are not a prefix of the scan's %v", k.res, want)
			}
			seen++
			continue
		}
		p, ok := w.inserted[r.ID]
		if !ok {
			return fmt.Sprintf("answer holds id %d, which no acknowledged insert created", r.ID)
		}
		if s := k.q.Score(p); s != r.Score {
			return fmt.Sprintf("id %d scored %v, its point scores %v", r.ID, r.Score, s)
		}
	}
	return ""
}

// checkCluster runs after the writer stopped and the followers caught up.
// It checks a probe set through the router against the scan over the seed
// rows plus the surviving inserts; the same set directly on each follower
// against its partition's share of those rows; and, after closing each
// leader, that an index recovered from its WAL directory alone holds every
// acknowledged write.
func (v *verifier) checkCluster(d *deployment, w *writeLog) {
	c := d.cluster
	probe := genQueries(v.o.sizes.routed, v.o.seed, streamProbe)

	// Live rows by ascending ID, and which partition holds each survivor:
	// the leader that can locate it (the router's slot table is private).
	var survivors []int
	for id := range w.inserted {
		if !w.removed[id] {
			survivors = append(survivors, id)
		}
	}
	sort.Ints(survivors)
	type rowSet struct {
		rows [][]float64
		ids  []int
		scan sdquery.Engine // over rows, built once the set is complete
	}
	// sets[0] is every live row, sets[1+pi] partition pi's share.
	sets := make([]rowSet, 1+len(c.leaders))
	all, parts := &sets[0], sets[1:]
	all.rows = append([][]float64(nil), v.rows...)
	for id := range v.rows {
		all.ids = append(all.ids, id)
		p := &parts[id%len(parts)]
		p.rows, p.ids = append(p.rows, v.rows[id]), append(p.ids, id)
	}
	for _, id := range survivors {
		all.rows, all.ids = append(all.rows, w.inserted[id]), append(all.ids, id)
		owner := -1
		for pi, l := range c.leaders {
			if p, ok := l.idx.PointByID(id); ok && slices.Equal(p, w.inserted[id]) {
				owner = pi
			}
		}
		if owner < 0 {
			v.failf("acknowledged insert %d is on no leader", id)
			continue
		}
		p := &parts[owner]
		p.rows, p.ids = append(p.rows, w.inserted[id]), append(p.ids, id)
	}

	for i := range sets {
		var err error
		if sets[i].scan, err = newOracle(sets[i].rows); err != nil {
			v.failf("oracle: %v", err)
			return
		}
	}
	// expect answers q by scanning one row set and mapping positions to IDs.
	expect := func(rs *rowSet, q sdquery.Query) []sdquery.Result {
		res, err := rs.scan.TopK(q)
		if err != nil {
			v.failf("oracle: %v", err)
			return nil
		}
		for i := range res {
			res[i].ID = rs.ids[res[i].ID]
		}
		return res
	}
	h := newHTTPClient()
	defer h.close()
	ask := func(what, base string, rs *rowSet) {
		for _, q := range probe {
			v.res.Attempted++
			got, err := h.topK(base, appendTopKBody(nil, q), true)
			if err != nil {
				v.failf("%s: %v", what, err)
				continue
			}
			if want := expect(rs, q); !slices.Equal(got, want) {
				v.failf("%s differs from the scan: got %v, want %v", what, got, want)
			}
		}
	}
	ask("router after quiescing", c.url, all)
	for pi, f := range c.followers {
		ask(fmt.Sprintf("follower %d", pi), f.url, &parts[pi])
	}

	for pi, l := range c.leaders {
		l.close()
		v.res.Attempted++
		idx, err := reopenLeader(l.dir)
		if err != nil {
			v.failf("%v", err)
			continue
		}
		if idx.Len() != len(parts[pi].ids) {
			v.failf("leader %d recovered %d rows from its WAL, %d were acknowledged live", pi, idx.Len(), len(parts[pi].ids))
		}
		for _, q := range probe {
			v.res.Attempted++
			got, err := idx.TopK(q)
			if err != nil {
				v.failf("recovered leader %d: %v", pi, err)
				continue
			}
			if want := expect(&parts[pi], q); !slices.Equal(got, want) {
				v.failf("recovered leader %d differs from the scan: got %v, want %v", pi, got, want)
			}
		}
		idx.Close()
	}
}
