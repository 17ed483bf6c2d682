// Command ftserve runs the fabric as an HTTP daemon: the centralized
// circuit-setup service the paper motivates, serving many concurrent
// clients over one or more independent scheduling planes behind a
// federation router.
//
// Usage:
//
//	ftserve [-addr :8080] [-validate] [-pprof] [-gray-step 5ms]
//	        [-planes 1] [-policy hash] [-levels 3] [-children 8] [-parents 8]
//	        [-scheduler level-wise,rollback]
//	        [-batch 32] [-maxwait 2ms] [-queue 1024] [-timeout 0]
//	        | -config fabric.json
//
// The second row builds -planes identical planes behind the -policy plane
// selection policy, the third names their admission engine in
// internal/sched's registry grammar ("family,key=value,flag"), the fourth
// is each plane's queue knobs. Those ten flags fill the same
// federation.FileConfig that -config loads ("-" reads stdin), so naming
// one next to -config is refused. The gray-failure knobs are file keys
// only: fttopo gen -flap-threshold 3 | ftserve -config -
// -validate checks the configuration and exits without serving; -pprof
// mounts net/http/pprof under /debug/pprof/; -gray-step is the clock
// period of the flaky fault processes POST /fault starts.
//
// Endpoints (JSON over stdlib net/http):
//
//	POST /connect  {"src":0,"dst":37}   → 200 {"id":1,"src":0,"dst":37,"ports":[2,0,1],"plane":"plane0"}
//	               {"src":0,"dst":5}    → 200 {"id":2,"src":0,"dst":5,"ports":null,"plane":"plane0"}
//	                                      (a circuit inside one level-0 switch holds no up-port)
//	                                      409 {"error":"unroutable","fail_level":1,"cause":"contention"|"faults"}
//	POST /release  {"id":1}             → 200 {"id":1,"released":true}
//	POST /fault    {"plane":"plane0","links":[{"level":0,"switch":1,"port":2}]}
//	                                    → 200 {"kind":"link","failed":2,"revoked":1} (inject faults)
//	POST /fault    {"plane":"plane0","flaky":[{"link":{...},"duty_cycle":0.5,"seed":7}]}
//	                                    → 200 {"kind":"flaky","flaky":1} (start intermittent processes)
//	POST /fault    {"plane":"plane0","degrade":{"admit_latency":"2ms","duty_cycle":0.3}}
//	                                    → 200 {"kind":"degraded"} (slow-but-alive plane)
//	POST /fault    {"plane":"plane0","repair":true,"links":[...]} → repair those components
//	POST /fault    {"plane":"plane0","repair":true} → repair the plane entirely: stop its flaky
//	               processes, heal faults, lift quarantines, clear the degraded process, re-admit
//	POST /fault    {"plane":"plane0","kill":true}   → fail the whole plane
//	GET  /faults                        → 200 per-plane fault sets, flaky-process duty-cycle
//	                                      state, quarantined channels, degraded capacity
//	GET  /stats                         → 200 federated counters + per-plane fabric breakdown
//	                                      (health score, breaker state, flap/quarantine/budget)
//	GET  /healthz                       → 200 {"status":"ok"|"degraded",...} liveness probe;
//	                                      degraded while any plane has failed channels,
//	                                      outstanding repair tickets, quarantined channels,
//	                                      an open breaker, or an injected degraded process
//
// The "plane" field may be omitted on a single-plane federation. A POST
// body is exactly one JSON value, names only its verb's fields and is at
// most 64 KiB; anything else is a 400. (A small /connect or /release
// body of known length is read by a fixed-shape scanner, codec.go, which
// accepts only what that rule reads the same way and hands the rest to
// it.) SIGINT/SIGTERM drain in-flight requests, then drain every plane
// concurrently under one deadline, and exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "ftserve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	opts, cfg, err := buildConfig(args)
	if err != nil {
		return err
	}
	if opts.validate {
		if err := cfg.Check(); err != nil {
			return err
		}
		fmt.Printf("ftserve: config ok: %d plane(s), policy %s, %d nodes\n",
			len(cfg.Planes), cfg.Policy, cfg.Planes[0].Fabric.Tree.Nodes())
		return nil
	}
	for _, info := range sched.List() {
		log.Printf("ftserve: engine %-10s %s (example: %s)", info.Family, info.Summary, info.Example)
	}
	router, err := federation.New(cfg)
	if err != nil {
		return err
	}

	sv := newServer(router)
	sv.enablePprof = opts.pprof
	sv.gray.step = opts.grayStep
	defer sv.stopGray()
	srv := &http.Server{Addr: opts.addr, Handler: sv.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("ftserve: shutdown: %v", err)
		}
		// One deadline for the whole fleet: Close drains every plane
		// concurrently, so the slowest plane bounds the wait, not the sum.
		if err := router.Close(shutdownCtx); err != nil {
			log.Printf("ftserve: fabric drain: %v", err)
		}
	}()
	log.Printf("ftserve: serving %d plane(s) of %s on %s (policy %s, %d nodes)",
		router.PlaneCount(), cfg.Planes[0].Fabric.Tree, opts.addr, cfg.Policy, router.Nodes())
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serveOpts are the flags that configure the daemon, not the fabric.
type serveOpts struct {
	addr     string
	validate bool
	pprof    bool
	grayStep time.Duration
}

// buildConfig parses the command line. The shape and queue flags fill a
// federation.FileConfig, the value -config loads, so both forms reach
// federation.New through the one Build call below, under the same rules.
func buildConfig(args []string) (serveOpts, federation.Config, error) {
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	var opts serveOpts
	fs.StringVar(&opts.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&opts.validate, "validate", false, "validate the configuration and exit without serving")
	fs.BoolVar(&opts.pprof, "pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	fs.DurationVar(&opts.grayStep, "gray-step", defaultGrayStep, "flaky fault process clock period")
	configPath := fs.String("config", "", "multi-plane JSON config `file` from fttopo gen (\"-\" reads stdin); it carries the shape and queue knobs, so their flags may not accompany it")
	planes := fs.Int("planes", 1, "number of identical planes built from the shape flags")
	policy := fs.String("policy", "hash", "plane selection policy ("+strings.Join(federation.Policies(), "|")+")")
	levels := fs.Int("levels", 3, "switch levels l")
	children := fs.Int("children", 8, "children per switch m")
	parents := fs.Int("parents", 8, "parents per switch w")
	schedSpec := fs.String("scheduler", "level-wise,rollback", "admission engine spec (internal/sched registry grammar)")
	batch := fs.Int("batch", fabric.DefaultBatchSize, "epoch flush threshold (1 disables batching)")
	maxWait := fs.Duration("maxwait", fabric.DefaultMaxWait, "max batching delay before an epoch flushes")
	queue := fs.Int("queue", fabric.DefaultQueueLimit, "admission queue bound (backpressure beyond)")
	timeout := fs.Duration("timeout", 0, "admission timeout per request (0 = none)")
	if err := fs.Parse(args); err != nil {
		return opts, federation.Config{}, err
	}

	// A -config file carries the shape and queue knobs itself, so any of
	// their flags set next to it is refused, not dropped.
	var clash []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr", "validate", "pprof", "gray-step", "config":
		default:
			clash = append(clash, "-"+f.Name)
		}
	})
	var fc *federation.FileConfig
	var err error
	switch {
	case *configPath != "" && len(clash) > 0:
		err = fmt.Errorf("%s set next to -config: the file carries those knobs (see `fttopo gen`)", strings.Join(clash, " "))
	case *configPath != "":
		fc, err = federation.LoadFile(*configPath)
	default:
		fc = federation.Generate(*planes, *levels, *children, *parents, *schedSpec, *policy)
		for i := range fc.Planes {
			ps := &fc.Planes[i]
			ps.BatchSize, ps.QueueLimit = *batch, *queue
			ps.MaxWait, ps.AdmitTimeout = maxWait.String(), timeout.String()
		}
	}
	if err != nil {
		return opts, federation.Config{}, err
	}
	cfg, err := fc.Build()
	return opts, cfg, err
}

// server maps HTTP requests onto the federation router, translating
// granted handles to numeric connection ids clients can release later.
type server struct {
	router *federation.Router
	// enablePprof mounts the net/http/pprof handlers in routes.
	enablePprof bool
	// gray holds the running intermittent fault processes (gray.go).
	gray *grayState

	// planes holds each plane name quoted as a JSON string, for the
	// appended /connect answer; a router's planes are fixed at New.
	planes map[string][]byte

	mu     sync.Mutex
	nextID uint64
	open   map[uint64]*federation.Handle
}

func newServer(router *federation.Router) *server {
	s := &server{
		router: router,
		gray:   newGrayState(defaultGrayStep),
		planes: make(map[string][]byte),
		open:   make(map[uint64]*federation.Handle),
	}
	for _, name := range router.PlaneNames() {
		s.planes[name] = quotePlane(name)
	}
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /connect", s.handleConnect)
	mux.HandleFunc("POST /release", s.handleRelease)
	mux.HandleFunc("POST /fault", s.handleFault)
	mux.HandleFunc("GET /faults", s.handleFaults)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.enablePprof {
		// The pprof handlers normally self-register on DefaultServeMux at
		// import time; mount them explicitly since we serve a private mux.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type connectRequest struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// connectResponse is the 200 /connect body. appendConnect writes it by
// hand; this type is the shape it is held to byte for byte.
type connectResponse struct {
	ID    uint64 `json:"id"`
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Ports []int  `json:"ports"`
	Plane string `json:"plane"`
}

// errorResponse is every non-200 body. A 409 for a scheduler denial adds
// the level of the first conflict and its cause on the last plane tried:
// "contention" (the plane is full; a release could cure it) or "faults"
// (its failed or quarantined channels alone block the pair).
type errorResponse struct {
	Error     string `json:"error"`
	FailLevel *int   `json:"fail_level,omitempty"`
	Cause     string `json:"cause,omitempty"`
}

func (s *server) handleConnect(w http.ResponseWriter, r *http.Request) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	// v holds src and dst; the request struct, which decodeBody's
	// reflection moves to the heap, exists only on the strict road.
	var v [2]uint64
	if !scanBody(r, *bp, connectFields, v[:]) {
		var req connectRequest
		if !decodeBody(w, r, &req) {
			return
		}
		v = [2]uint64{uint64(req.Src), uint64(req.Dst)}
	}
	h, err := s.router.Connect(r.Context(), int(v[0]), int(v[1]))
	if err != nil {
		var ue *fabric.UnroutableError
		switch {
		case errors.As(err, &ue):
			lvl, cause := ue.FailLevel, "contention"
			if ue.FaultBlocked {
				cause = "faults"
			}
			writeJSON(w, http.StatusConflict, errorResponse{Error: "unroutable", FailLevel: &lvl, Cause: cause})
		case errors.Is(err, fabric.ErrUnroutable):
			// A federated denial without a single conflict level (every
			// candidate plane refused).
			writeJSON(w, http.StatusConflict, errorResponse{Error: "unroutable"})
		case errors.Is(err, fabric.ErrAdmitTimeout), errors.Is(err, fabric.ErrClosed),
			errors.Is(err, federation.ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away; the response is best-effort.
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
		return
	}
	if err := r.Context().Err(); err != nil {
		// The client went away while its grant was decided: no one will
		// learn the circuit's id, so hand it back. Release can only fail
		// for a circuit a plane already took down, which holds nothing.
		_ = h.Release()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.open[id] = h
	s.mu.Unlock()
	*bp = appendConnect((*bp)[:0], id, h.Src(), h.Dst(), h.Ports(), s.planes[h.Plane()])
	writeOK(w, *bp)
}

type releaseRequest struct {
	ID uint64 `json:"id"`
}

// releaseResponse is the 200 /release body, written by appendRelease.
type releaseResponse struct {
	ID       uint64 `json:"id"`
	Released bool   `json:"released"`
}

func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	var v [1]uint64
	if !scanBody(r, *bp, releaseFields, v[:]) {
		var req releaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		v[0] = req.ID
	}
	id := v[0]
	s.mu.Lock()
	h, ok := s.open[id]
	delete(s.open, id)
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no open connection %d", id)})
		return
	}
	if err := h.Release(); err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	*bp = appendRelease((*bp)[:0], id)
	writeOK(w, *bp)
}

// faultRequest is the POST /fault body: a faults.FaultSet (links and
// switches) plus the plane it targets and the verb switches. With
// repair=false the set is injected; with repair=true it is healed — or,
// when the set is empty, the whole plane is repaired (flaky processes
// stopped, quarantines lifted, degraded process cleared) and
// re-admitted to candidate selection. kill=true fails the entire plane.
// flaky starts intermittent fault processes; degrade installs a
// slow-plane process. One verb per request; the plane field may be
// omitted on a single-plane federation.
type faultRequest struct {
	faults.FaultSet
	Plane   string                `json:"plane,omitempty"`
	Repair  bool                  `json:"repair,omitempty"`
	Kill    bool                  `json:"kill,omitempty"`
	Flaky   []faults.FlakyLink    `json:"flaky,omitempty"`
	Degrade *faults.DegradedPlane `json:"degrade,omitempty"`
}

type faultResponse struct {
	Plane string `json:"plane"`
	// Kind classifies what the verb did: "link", "switch", or "mixed"
	// for clean injections (by fault-set content), "repair" /
	// "plane-repair" for heals, "flaky" or "degraded" for gray-process
	// installs, "kill" for a whole-plane kill.
	Kind string `json:"kind"`
	// Failed/Revoked report an injection: channels newly taken out of
	// service and granted connections sent to the repair loop.
	Failed  int `json:"failed,omitempty"`
	Revoked int `json:"revoked,omitempty"`
	// Repaired reports a repair: channels returned to service.
	Repaired int `json:"repaired,omitempty"`
	// Flaky reports how many intermittent processes the plane now runs
	// (after a flaky install) or stopped (on plane-repair).
	Flaky int `json:"flaky,omitempty"`
	// Killed reports a whole-plane kill.
	Killed bool `json:"killed,omitempty"`
}

// targetPlane resolves the plane a fault request addresses: the named
// one, or the only one when the federation has a single plane.
func (s *server) targetPlane(name string) (string, fabric.Surface, error) {
	if name == "" {
		if s.router.PlaneCount() != 1 {
			return "", nil, fmt.Errorf("multi-plane federation: name a plane (one of %v)", s.router.PlaneNames())
		}
		name = s.router.PlaneNames()[0]
	}
	surf, ok := s.router.Plane(name)
	if !ok {
		return "", nil, fmt.Errorf("unknown plane %q (one of %v)", name, s.router.PlaneNames())
	}
	return name, surf, nil
}

func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req faultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	name, surf, err := s.targetPlane(req.Plane)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	switch {
	case req.Kill:
		if err := s.router.KillPlane(name); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: "kill", Killed: true})
	case req.Degrade != nil:
		if err := s.router.SetDegraded(name, *req.Degrade); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: "degraded"})
	case len(req.Flaky) > 0:
		running, err := s.addFlaky(name, surf, req.Flaky)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: "flaky", Flaky: running})
	case req.Repair && req.FaultSet.Empty():
		stopped := s.clearFlaky(name, surf)
		repaired := surf.FaultCount()
		if err := s.router.RepairPlane(name); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: "plane-repair", Repaired: repaired, Flaky: stopped})
	case req.Repair:
		repaired, err := surf.Repair(&req.FaultSet)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: "repair", Repaired: repaired})
	case req.FaultSet.Empty():
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty fault set (name links or switches, or set repair/kill/flaky/degrade)"})
	default:
		failed, revoked, err := surf.Fail(&req.FaultSet)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, faultResponse{Plane: name, Kind: faultKind(&req.FaultSet), Failed: failed, Revoked: revoked})
	}
}

// planeFaults is one plane's entry in the GET /faults body.
type planeFaults struct {
	Plane            string             `json:"plane"`
	FaultyChannels   int                `json:"faulty_channels"`
	DegradedCapacity float64            `json:"degraded_capacity"`
	PendingRepairs   int64              `json:"pending_repairs"`
	Links            []faults.LinkFault `json:"links"`
	// Flaky lists the plane's running intermittent fault processes with
	// their remaining duty-cycle state; Quarantined the channels flap
	// damping currently masks; Degraded the installed slow-plane
	// process, if any.
	Flaky       []flakyStatus         `json:"flaky,omitempty"`
	Quarantined []string              `json:"quarantined,omitempty"`
	Degraded    *faults.DegradedPlane `json:"degraded,omitempty"`
}

type faultsResponse struct {
	Planes []planeFaults `json:"planes"`
}

func (s *server) handleFaults(w http.ResponseWriter, r *http.Request) {
	resp := faultsResponse{}
	for _, name := range s.router.PlaneNames() {
		surf, _ := s.router.Plane(name)
		st := surf.Stats()
		fs := surf.Faults()
		if fs.Links == nil {
			fs.Links = []faults.LinkFault{} // render [] rather than null
		}
		pf := planeFaults{
			Plane:            name,
			FaultyChannels:   st.FaultyChannels,
			DegradedCapacity: st.DegradedCapacity,
			PendingRepairs:   st.PendingRepairs,
			Links:            fs.Links,
			Flaky:            s.flakyStatuses(name),
			Degraded:         s.router.Degraded(name),
		}
		if st.Quarantined > 0 {
			pf.Quarantined = quarantinedStrings(surf)
		}
		resp.Planes = append(resp.Planes, pf)
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse wraps the federated snapshot with server-side context.
type statsResponse struct {
	Nodes int `json:"nodes"`
	Open  int `json:"open"`
	federation.Stats
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := len(s.open)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsResponse{Nodes: s.router.Nodes(), Open: open, Stats: s.router.Stats()})
}

// planeHealth is one plane's entry in the healthz body.
type planeHealth struct {
	Plane            string  `json:"plane"`
	Healthy          bool    `json:"healthy"`
	Health           float64 `json:"health"`
	Breaker          string  `json:"breaker"`
	FaultyChannels   int     `json:"faulty_channels"`
	Quarantined      int     `json:"quarantined,omitempty"`
	DegradedCapacity float64 `json:"degraded_capacity"`
	PendingRepairs   int64   `json:"pending_repairs"`
}

// healthzResponse is the liveness-probe body: "ok" while every plane is
// clean, "degraded" while any plane has failed or quarantined channels,
// outstanding repair tickets, an open or half-open breaker, or an
// injected degraded process (still HTTP 200 — a degraded federation
// serves; the per-plane breakdown tells the prober what is left).
type healthzResponse struct {
	Status string        `json:"status"`
	Nodes  int           `json:"nodes"`
	Open   int           `json:"open"`
	Planes []planeHealth `json:"planes"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := len(s.open)
	s.mu.Unlock()
	resp := healthzResponse{Status: "ok", Nodes: s.router.Nodes(), Open: open}
	// Router.Health, not Stats: a probe must not copy the planes'
	// histograms or drain their release rings.
	for _, ph := range s.router.Health() {
		if ph.Fabric.FaultyChannels > 0 || ph.Fabric.PendingRepairs > 0 || !ph.Healthy ||
			ph.Fabric.Quarantined > 0 || ph.Breaker != "closed" || ph.Degraded {
			resp.Status = "degraded"
		}
		resp.Planes = append(resp.Planes, planeHealth{
			Plane:            ph.Name,
			Healthy:          ph.Healthy,
			Health:           ph.Health,
			Breaker:          ph.Breaker,
			FaultyChannels:   ph.Fabric.FaultyChannels,
			Quarantined:      ph.Fabric.Quarantined,
			DegradedCapacity: ph.Fabric.DegradedCapacity,
			PendingRepairs:   ph.Fabric.PendingRepairs,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxBody caps a request body; every verb's fits in a small part of it.
const maxBody = 64 << 10

// decodeBody reads a request body that is exactly one JSON value naming
// only v's fields, and answers 400 otherwise: a misspelled key must not
// read as an omitted one (a /fault "link" typo would be a whole-plane
// repair), and a second value must not be dropped unread.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("body holds more than one JSON value")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("ftserve: encoding response: %v", err)
	}
}
