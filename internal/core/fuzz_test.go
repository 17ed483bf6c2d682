package core

import (
	"fmt"
	"testing"

	"repro/internal/linkstate"
	"repro/internal/topology"
)

// FuzzScheduleLinkSafety decodes arbitrary bytes into a request batch and
// asserts that every scheduler produces a verifiable, link-safe result —
// the repository's central invariant, exposed to `go test -fuzz`.
func FuzzScheduleLinkSafety(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{255, 254, 0, 0, 17, 17, 42})
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	tree := topology.MustNew(3, 4, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []Request
		for i := 0; i+1 < len(data) && len(reqs) < 128; i += 2 {
			reqs = append(reqs, Request{
				Src: int(data[i]) % tree.Nodes(),
				Dst: int(data[i+1]) % tree.Nodes(),
			})
		}
		for _, s := range []Scheduler{
			NewLevelWise(),
			&LevelWise{Opts: Options{Rollback: true, Traversal: RequestMajor}},
			NewLocalGreedy(),
			NewLocalRandom(),
		} {
			st := linkstate.New(tree)
			res := s.Schedule(st, reqs)
			if err := Verify(tree, res); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got, want := st.OccupiedCount(), HeldChannels(res); got != want {
				t.Fatalf("%s: occupancy %d != held %d", s.Name(), got, want)
			}
		}
		// Every fuzzed batch is also a differential case for the word
		// kernel: bit-identical to the Vector path, carried epochs included.
		for _, rollback := range []bool{false, true} {
			opts := func() Options { return Options{Rollback: rollback} }
			wordVsVector(t, fmt.Sprintf("rollback=%v", rollback), tree, opts, nil, false, reqs)
			wordVsVector(t, fmt.Sprintf("rollback=%v carried", rollback), tree, opts, (*linkstate.State).TrackLoad, true, reqs)
		}
	})
}

// FuzzScheduleWithFailures additionally knocks out links derived from the
// fuzz input and asserts the schedulers still never touch a failed
// channel and remain link-safe.
func FuzzScheduleWithFailures(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{9, 8})
	f.Add([]byte{0, 63, 63, 0}, []byte{0, 1, 2, 3, 4})
	tree := topology.MustNew(3, 4, 4)
	f.Fuzz(func(t *testing.T, reqData, failData []byte) {
		st := linkstate.New(tree)
		for i := 0; i+2 < len(failData) && i < 60; i += 3 {
			h := int(failData[i]) % tree.LinkLevels()
			idx := int(failData[i+1]) % tree.SwitchesAt(h)
			p := int(failData[i+2]) % tree.Parents()
			st.FailLink(linkstate.Up, h, idx, p)
			st.FailLink(linkstate.Down, h, idx, p)
		}
		var reqs []Request
		for i := 0; i+1 < len(reqData) && len(reqs) < 64; i += 2 {
			reqs = append(reqs, Request{
				Src: int(reqData[i]) % tree.Nodes(),
				Dst: int(reqData[i+1]) % tree.Nodes(),
			})
		}
		failedBefore := st.FailedCount()
		res := NewLevelWise().Schedule(st, reqs)
		if err := Verify(tree, res); err != nil {
			t.Fatal(err)
		}
		if st.FailedCount() != failedBefore {
			t.Fatal("scheduling changed the failure set")
		}
		// No granted path may cross a failed channel: replay against a
		// state with only the failures applied.
		check := linkstate.New(tree)
		for i := 0; i+2 < len(failData) && i < 60; i += 3 {
			h := int(failData[i]) % tree.LinkLevels()
			idx := int(failData[i+1]) % tree.SwitchesAt(h)
			p := int(failData[i+2]) % tree.Parents()
			check.FailLink(linkstate.Up, h, idx, p)
			check.FailLink(linkstate.Down, h, idx, p)
		}
		for _, o := range res.Outcomes {
			if o.Granted && o.H > 0 {
				if err := check.AllocatePath(o.Src, o.Dst, o.Ports); err != nil {
					t.Fatalf("granted path crosses a failed channel: %v", err)
				}
			}
		}
	})
}
