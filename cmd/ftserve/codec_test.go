package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/federation"
	"repro/internal/topology"
)

// raceEnabled is set by race_test.go when the race detector is built in.
var raceEnabled bool

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendedBodiesMatchEncoder: the appended 200 bodies of /connect and
// /release are byte for byte what json.NewEncoder writes, over the ports
// shapes, id and endpoint extremes, and plane names that need escaping;
// and a server quotes its own planes' names the same way.
func TestAppendedBodiesMatchEncoder(t *testing.T) {
	names := []string{"plane0", "a<b&c>", `q"t`, "é", "\"\x01\"", "bad\xffutf8"}
	portSets := [][]int{nil, {}, {0}, {3, 1}, {0, 7, 2}, {15, 0, 15, 4}}
	ids := []uint64{0, 1, math.MaxUint64}
	ends := [][2]int{{0, 0}, {0, 4095}, {4095, 0}, {math.MaxInt, math.MinInt}}
	for _, name := range names {
		for _, ports := range portSets {
			for _, id := range ids {
				for _, e := range ends {
					got := appendConnect(nil, id, e[0], e[1], ports, quotePlane(name))
					want := encodeJSON(t, connectResponse{ID: id, Src: e[0], Dst: e[1], Ports: ports, Plane: name})
					if !bytes.Equal(got, want) {
						t.Errorf("connect body\n got %q\nwant %q", got, want)
					}
				}
			}
		}
	}
	for _, id := range ids {
		if got, want := appendRelease(nil, id), encodeJSON(t, releaseResponse{ID: id, Released: true}); !bytes.Equal(got, want) {
			t.Errorf("release body\n got %q\nwant %q", got, want)
		}
	}

	// Through the handler: one plane per name, round-robin, on a tree deep
	// enough that the pairs below hold routes of every length 0–4.
	cfg := federation.Config{Policy: federation.PolicyRoundRobin}
	for _, name := range names {
		cfg.Planes = append(cfg.Planes, federation.PlaneConfig{
			Name:   name,
			Fabric: fabric.Config{Tree: topology.MustNew(5, 2, 2), BatchSize: 1},
		})
	}
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close(context.Background())
	s := newServer(router)
	s.nextID = math.MaxUint64 - 1
	for i, dst := range []int{0, 1, 2, 4, 8, 16, 31} {
		rec := httptest.NewRecorder()
		s.handleConnect(rec, httptest.NewRequest(http.MethodPost, "/connect", strings.NewReader(fmt.Sprintf(`{"src":0,"dst":%d}`, dst))))
		if rec.Code != http.StatusOK {
			t.Fatalf("connect 0→%d: status %d %s", dst, rec.Code, rec.Body)
		}
		id := s.nextID
		h := s.open[id]
		want := encodeJSON(t, connectResponse{ID: id, Src: h.Src(), Dst: h.Dst(), Ports: h.Ports(), Plane: h.Plane()})
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("connect %d body\n got %q\nwant %q", i, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("connect Content-Type %q", ct)
		}
	}
}

// minimalWriter is a ResponseWriter that keeps the last status and body in
// storage it reuses, so an allocation count sees the handler alone.
type minimalWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *minimalWriter) Header() http.Header  { return w.header }
func (w *minimalWriter) WriteHeader(code int) { w.code = code }
func (w *minimalWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestHotVerbAllocs pins what handleConnect and handleRelease allocate on
// a 200 over a small body with a Content-Length: a round trip allocates
// only below the handler — the fabric's handle, the router's and the
// copied route — and a release nothing. Decoding and encoding allocate
// nothing per request (the reflective road took 23 and 10). Run without
// -race.
func TestHotVerbAllocs(t *testing.T) {
	const wantRoundTripAllocs, wantReleaseAllocs = 3, 0
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	router := newTestRouter(t, 1, 3, 8, 1, federation.PolicyRoundRobin)
	defer router.Close(context.Background())
	s := newServer(router)
	w := &minimalWriter{header: make(http.Header)}
	var body bytes.Reader
	req := httptest.NewRequest(http.MethodPost, "/", nil)
	req.Body = io.NopCloser(&body)
	serve := func(handle http.HandlerFunc, b []byte) {
		body.Reset(b)
		req.ContentLength = int64(len(b))
		clear(w.header)
		w.code, w.body = 0, w.body[:0]
		handle(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d %s for %s", w.code, w.body, b)
		}
	}
	var releaseBody []byte
	release := func(id uint64) {
		releaseBody = append(strconv.AppendUint(append(releaseBody[:0], `{"id":`...), id, 10), '}')
		serve(s.handleRelease, releaseBody)
	}
	connectBody := []byte(`{"src":0,"dst":100}`)
	// Warm the pool, the id map and the release body's buffer.
	serve(s.handleConnect, connectBody)
	release(s.nextID)
	roundTrip := testing.AllocsPerRun(200, func() {
		serve(s.handleConnect, connectBody)
		release(s.nextID)
	})

	// Release alone: 101 circuits held first, one released per run.
	const held = 101
	next := s.nextID + 1
	for i := 0; i < held; i++ {
		serve(s.handleConnect, fmt.Appendf(nil, `{"src":%d,"dst":%d}`, i, (i+64)%512))
	}
	releaseOnly := testing.AllocsPerRun(held-1, func() {
		release(next)
		next++
	})
	t.Logf("allocations per call: connect+release %.1f, release %.1f", roundTrip, releaseOnly)
	if roundTrip > wantRoundTripAllocs || releaseOnly > wantReleaseAllocs {
		t.Errorf("connect+release allocates %.1f (want ≤ %d), release %.1f (want ≤ %d)",
			roundTrip, wantRoundTripAllocs, releaseOnly, wantReleaseAllocs)
	}
}
