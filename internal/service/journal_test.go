package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOversizedJournalLineDoesNotBlockOpen is the regression test for a
// journal line longer than the replay buffer: a sweep whose scheme name is
// 300,000 '<' characters is accepted, and its accepted entry marshals to
// about 1.8 MB because json.Marshal escapes every '<' to six bytes.
// Reopening the service must skip that line like a torn one, and recover
// every other job unchanged.
func TestOversizedJournalLineDoesNotBlockOpen(t *testing.T) {
	dir := t.TempDir()
	svc1 := open(t, dir, nil)
	good, _, err := svc1.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, good, StateDone)
	huge := JobSpec{Kind: KindSweep, Schemes: []string{strings.Repeat("<", 300_000)}, Benchmarks: []string{"FIR"}, OpsBudget: 8, Seed: 1}
	bad, _, err := svc1.Submit(huge)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, StateDone)
	svc1.Close()

	svc2, err := Open(Options{Dir: dir, Run: fakeRun})
	if err != nil {
		t.Fatalf("Open after an oversized journal line: %v", err)
	}
	defer svc2.Close()
	j, ok := svc2.Get(good.ID)
	if !ok {
		t.Fatal("job beside the oversized journal was not recovered")
	}
	if got := j.Status(); got.State != StateDone || !reflect.DeepEqual(got.Artifacts, want.Artifacts) {
		t.Fatalf("recovered status = %+v, want artifacts %+v", got, want.Artifacts)
	}
	// The oversized accepted line is skipped, so its job has no spec to
	// recover from.
	if _, ok := svc2.Get(bad.ID); ok {
		t.Error("job whose accepted line was skipped was recovered")
	}
}

// journalPrefix is a well-formed journal: the accepted entry of spec
// followed by runs run entries with distinct digests.
func journalPrefix(t testing.TB, spec JobSpec, runs int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(e journalEntry) {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	put(journalEntry{T: evAccepted, Spec: &spec, Time: 1})
	for i := 0; i < runs; i++ {
		put(journalEntry{T: evRun, Index: i, Digest: fmt.Sprintf("d%d", i), Time: 2})
	}
	return buf.Bytes()
}

// FuzzReadJournal writes a valid journal prefix followed by arbitrary bytes
// as a journal file. readJournal must not panic or fail on content, must
// keep every run entry of the prefix, and must replay exactly the lines a
// plain split at newlines yields, skipping those over maxJournalLine.
func FuzzReadJournal(f *testing.F) {
	f.Add(uint8(0), []byte(""))
	f.Add(uint8(2), []byte(`{"t":"run","i":7,"digest":"x","time":3}`+"\n"+`{"t":"do`))
	f.Add(uint8(3), []byte(`{"t":"done","artifacts":[{"name":"a"}],"time":4}`))
	f.Add(uint8(1), []byte("\x00\xff\n\n{\r\n"+`{"t":"accepted","spec":{"kind":"compare"}}`))
	f.Add(uint8(5), bytes.Repeat([]byte("<"), 5000))
	f.Fuzz(func(t *testing.T, runs uint8, garbage []byte) {
		n := int(runs % 16)
		data := append(journalPrefix(t, sweepSpec(), n), garbage...)
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := readJournal(path)
		if err != nil {
			t.Fatalf("readJournal: %v", err)
		}
		// Later lines can replace a digest but never remove a run.
		for i := 0; i < n; i++ {
			if _, ok := st.completed[i]; !ok {
				t.Fatalf("run %d of the valid prefix lost", i)
			}
		}
		want := journalState{completed: make(map[int]string)}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) <= maxJournalLine {
				want.apply(line)
			}
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("replayed %+v, want %+v", st, want)
		}
	})
}
