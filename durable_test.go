package sdquery

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultfs"
)

// durableRoles is the fixed 4-dim role set of the durability tests.
var durableRoles = []Role{Repulsive, Attractive, Repulsive, Attractive}

// durableMutate drives n random inserts/removes through idx and mirrors
// them onto the oracle dataset, returning the appended data and dead mask.
func durableMutate(t *testing.T, idx interface {
	Insert(p []float64) (int, error)
	Remove(id int) bool
}, data [][]float64, dead []bool, n int, seed int64) ([][]float64, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 && len(data) > 0 {
			victim := rng.Intn(len(data))
			got := idx.Remove(victim)
			if got == dead[victim] {
				t.Fatalf("remove %d: got %v with oracle dead=%v", victim, got, dead[victim])
			}
			dead[victim] = true
			continue
		}
		row := make([]float64, len(durableRoles))
		for d := range row {
			row[d] = float64(rng.Intn(5)) / 4
		}
		id, err := idx.Insert(row)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if id != len(data) {
			t.Fatalf("insert id %d, want %d", id, len(data))
		}
		data = append(data, row)
		dead = append(dead, false)
	}
	return data, dead
}

// durableCheck compares idx against the oracle dataset on a deterministic
// query battery.
func durableCheck(t *testing.T, label string, idx Engine, data [][]float64, dead []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		q := randomQuery(rng, durableRoles, len(data))
		got, err := idx.TopK(q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", label, i, err)
		}
		sameResults(t, label, got, oracleTopK(data, dead, q))
	}
}

func TestDurableSDIndexRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(60, len(durableRoles), 1)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 80, 2)
	idx.Close()

	re, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	durableCheck(t, "reopened sdindex", re, data, dead)
	if st := re.WALStats(); !st.Enabled {
		t.Fatal("reopened index lost its WAL")
	}
	// The reopened index keeps logging: mutate more, reopen again.
	data, dead = durableMutate(t, re, data, dead, 20, 3)
	re.Close()
	re2, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	durableCheck(t, "twice-reopened sdindex", re2, data, dead)
}

func TestDurableShardedIndexRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(90, len(durableRoles), 4)
	idx, err := NewShardedIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithShards(3), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 100, 5)
	idx.Close()

	re, err := OpenShardedIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Len(), liveRows(dead); got != want {
		t.Fatalf("reopened Len = %d, oracle has %d live rows", got, want)
	}
	durableCheck(t, "reopened sharded", re, data, dead)
	data, dead = durableMutate(t, re, data, dead, 30, 6)
	durableCheck(t, "reopened sharded after writes", re, data, dead)
}

func TestDurableShardedHardDrop(t *testing.T) {
	// No Close, no Sync: the index is simply abandoned mid-flight, like a
	// killed process. SyncAlways acknowledged every mutation after its group
	// commit, so recovery owes all of them.
	fs := faultfs.NewMem()
	data := tieProneData(40, len(durableRoles), 7)
	idx, err := NewShardedIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithShards(2), WithMemtableSize(8))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 60, 8)

	re, err := OpenShardedIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	durableCheck(t, "hard-drop sharded", re, data, dead)
}

func TestDurableCreateRefusesExistingDir(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(10, len(durableRoles), 10)
	if _, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs)); err == nil {
		t.Fatal("re-creating over a durable dir must fail")
	}
	if _, err := NewShardedIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs)); err == nil {
		t.Fatal("re-creating over a durable dir must fail")
	}
}

func TestDurableRemovedReclaimedIDsRouteNowhere(t *testing.T) {
	// Remove rows, force compaction to physically reclaim them, checkpoint,
	// reopen: the reclaimed IDs are absent from every segment and must read
	// as "not live" without panicking.
	fs := faultfs.NewMem()
	data := tieProneData(30, len(durableRoles), 11)
	idx, err := NewShardedIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithShards(2), WithMemtableSize(8))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	for id := 0; id < 10; id++ {
		if !idx.Remove(id) {
			t.Fatalf("remove %d reported not live", id)
		}
		dead[id] = true
	}
	idx.Compact()
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	re, err := OpenShardedIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for id := 0; id < 10; id++ {
		if re.Remove(id) {
			t.Fatalf("reclaimed id %d reported live after reopen", id)
		}
	}
	durableCheck(t, "post-reclaim sharded", re, data, dead)
	// Fresh inserts keep extending the global ID space past the reclaimed
	// prefix.
	id, err := re.Insert(make([]float64, len(durableRoles)))
	if err != nil {
		t.Fatal(err)
	}
	if id != len(data) {
		t.Fatalf("post-reopen insert id %d, want %d", id, len(data))
	}
}

func TestDurableShardedSyncErrorDegradesToReadOnly(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(20, len(durableRoles), 12)
	idx, err := NewShardedIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	fs.SetSyncErr(errors.New("disk gone"))
	if _, err := idx.Insert(make([]float64, len(durableRoles))); !errors.Is(err, ErrWAL) {
		t.Fatalf("insert under fsync failure: %v, want ErrWAL", err)
	}
	if st := idx.WALStats(); st.Err == nil {
		t.Fatalf("index not degraded: %+v", st)
	}
	// Reads keep working.
	durableCheckReadsOnly(t, idx, data)
}

// liveRows counts the oracle's live rows.
func liveRows(dead []bool) int {
	n := 0
	for _, d := range dead {
		if !d {
			n++
		}
	}
	return n
}

func durableCheckReadsOnly(t *testing.T, idx Engine, data [][]float64) {
	t.Helper()
	q := Query{Point: make([]float64, len(durableRoles)), K: 5,
		Roles: durableRoles, Weights: []float64{1, 1, 1, 1}}
	if _, err := idx.TopK(q); err != nil {
		t.Fatalf("read after degradation: %v", err)
	}
}
