package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/federation"
)

// http_rt drives cmd/ftserve, built in the prepare step and spawned as a
// child, over loopback HTTP/1.1 keep-alive connections. The generator is
// deliberately not net/http: with net/http's client the generator cost as
// much as the server and, sharing cores with it, moved p99 from ~450 us to
// ~900-1600 us. It writes pre-encoded requests on a persistent net.Conn and
// parses only the status line, the framing headers and the body.

// ftserveProc is one spawned ftserve. It is always reaped: stop sends
// SIGTERM and kills after 5 s, and the child dies with the benchmark
// (Pdeathsig) if the benchmark itself is killed — a stale ftserve would
// silently serve the old build to the next run, which is also why every
// spawn picks a fresh port.
type ftserveProc struct {
	cmd     *exec.Cmd
	addr    string
	done    chan error
	logs    bytes.Buffer
	startup time.Duration // spawn to first 200 /healthz
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func spawnFtserve(bin string, gomaxprocs int, args ...string) (*ftserveProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	p := &ftserveProc{addr: addr, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	p.cmd.Stderr = &p.logs
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	began := time.Now()
	// Pdeathsig fires when the *thread* that forked exits, so the spawning
	// goroutine stays on its thread for the life of the child.
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := p.cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		p.done <- p.cmd.Wait()
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	for {
		select {
		case err := <-p.done:
			return nil, fmt.Errorf("ftserve exited during start-up: %v\n%s", err, p.logs.String())
		default:
		}
		if hc, err := dialHTTP(addr); err == nil {
			status, _, err := hc.do(reqHealthz, nil)
			hc.close()
			if err == nil && status == 200 {
				p.startup = time.Since(began)
				return p, nil
			}
		}
		if time.Since(began) > 10*time.Second {
			p.stop()
			return nil, fmt.Errorf("ftserve did not answer /healthz within 10 s\n%s", p.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the child and waits until it has ended; it returns how
// long the SIGTERM drain took.
func (p *ftserveProc) stop() (time.Duration, error) {
	began := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case err := <-p.done:
		return time.Since(began), err
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return time.Since(began), errors.New("ftserve ignored SIGTERM for 5 s and was killed")
	}
}

// cpu returns the child's user+system CPU time from /proc/<pid>/stat.
func (p *ftserveProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// rssMB returns the child's resident set from /proc/<pid>/status.
func (p *ftserveProc) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---- the raw HTTP/1.1 client ----

var (
	reqConnect = []byte("POST /connect HTTP/1.1\r\nHost: ftserve\r\nContent-Type: application/json\r\nContent-Length: ")
	reqRelease = []byte("POST /release HTTP/1.1\r\nHost: ftserve\r\nContent-Type: application/json\r\nContent-Length: ")
	reqHealthz = []byte("GET /healthz HTTP/1.1\r\nHost: ftserve\r\nContent-Length: ")
	reqStats   = []byte("GET /stats HTTP/1.1\r\nHost: ftserve\r\nContent-Length: ")
	// reqFloor asks for a path ftserve does not serve.
	reqFloor = []byte("GET /bench-floor HTTP/1.1\r\nHost: ftserve\r\nContent-Length: ")
)

const httpOpTimeout = 10 * time.Second

type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte // request assembly, reused
	body []byte // response body, reused: valid until the next do
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) close() { _ = h.c.Close() } // nothing was buffered for writing

// do sends one request (a pre-encoded head ending in "Content-Length: "
// plus the body) and reads the response.
func (h *httpConn) do(head, body []byte) (status int, resp []byte, err error) {
	h.out = append(h.out[:0], head...)
	h.out = strconv.AppendInt(h.out, int64(len(body)), 10)
	h.out = append(h.out, "\r\n\r\n"...)
	h.out = append(h.out, body...)
	if err := h.c.SetDeadline(time.Now().Add(httpOpTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := h.c.Write(h.out); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = atoi(line[9:12]); err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, hdrContentLength); ok {
			if length, err = atoi(v); err != nil {
				return 0, nil, fmt.Errorf("content-length %q: %w", v, err)
			}
		} else if v, ok := headerValue(line, hdrTransferEncoding); ok && bytes.EqualFold(v, []byte("chunked")) {
			chunked = true
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err := h.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(strings.TrimSpace(string(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("chunk size %q: %w", line, err)
			}
			// The chunk (or, after the last one, nothing) and its CRLF.
			at := len(h.body)
			h.body = append(h.body, make([]byte, n+2)...)
			if _, err := io.ReadFull(h.br, h.body[at:]); err != nil {
				return 0, nil, err
			}
			h.body = h.body[:at+int(n)]
			if n == 0 {
				return status, h.body, nil
			}
		}
	case length >= 0:
		if cap(h.body) < length {
			h.body = make([]byte, length)
		}
		h.body = h.body[:length]
		_, err := io.ReadFull(h.br, h.body)
		return status, h.body, err
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked framing")
	}
}

var (
	hdrContentLength    = []byte("content-length:")
	hdrTransferEncoding = []byte("transfer-encoding:")
)

// headerValue matches a header line against "name:", ignoring case, and
// returns its trimmed value. Like atoi it works on the read buffer in
// place: the generator allocates nothing per response header.
func headerValue(line, name []byte) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], name) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// atoi parses a non-negative decimal.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return 0, fmt.Errorf("not a number: %q", b)
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a number: %q", b)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// parseConnect extracts "id" and "ports" from ftserve's 200 /connect body,
// {"id":1,"src":0,"dst":37,"ports":[2,0,1],"plane":"plane0"}; a circuit
// inside one level-0 switch has "ports":null.
func parseConnect(body []byte) (id uint64, ports []int, err error) {
	i := bytes.Index(body, []byte(`"id":`))
	j := bytes.Index(body, []byte(`"ports":`))
	if i < 0 || j < 0 {
		return 0, nil, fmt.Errorf("connect response %q lacks id or ports", body)
	}
	for i += len(`"id":`); i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		id = id*10 + uint64(body[i]-'0')
	}
	list := body[j+len(`"ports":`):]
	if bytes.HasPrefix(list, []byte("null")) {
		return id, nil, nil
	}
	end := bytes.IndexByte(list, ']')
	if len(list) == 0 || list[0] != '[' || end < 0 {
		return 0, nil, fmt.Errorf("connect response %q has a malformed ports list", body)
	}
	ports = make([]int, 0, 4)
	for _, f := range bytes.Split(list[1:end], []byte(",")) {
		if len(f) == 0 {
			continue
		}
		p, err := atoi(f)
		if err != nil {
			return 0, nil, fmt.Errorf("connect response %q: port %q: %w", body, f, err)
		}
		ports = append(ports, p)
	}
	return id, ports, nil
}

// httpTarget is one ftserve with a keep-alive connection per client and one
// more for the harness's own stats reads.
type httpTarget struct {
	proc    *ftserveProc
	conns   []*httpConn
	bodies  [][]byte // per-client request body, reused
	control *httpConn
	// shutdown is how long the last stop took, for ftserve.shutdown_ms.
	shutdown time.Duration
}

func newHTTPTarget(proc *ftserveProc, clients int) (*httpTarget, error) {
	t := &httpTarget{proc: proc, bodies: make([][]byte, clients)}
	for i := 0; i <= clients; i++ {
		hc, err := dialHTTP(proc.addr)
		if err != nil {
			t.stop()
			return nil, err
		}
		if i == clients {
			t.control = hc
		} else {
			t.conns = append(t.conns, hc)
		}
	}
	return t, nil
}

func (t *httpTarget) connect(c, src, dst int) (grant, error) {
	b := append(t.bodies[c][:0], `{"src":`...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(dst), 10)
	b = append(b, '}')
	t.bodies[c] = b
	status, body, err := t.conns[c].do(reqConnect, b)
	switch {
	case err != nil:
		return grant{}, err
	case status == 409:
		return grant{}, errDenied
	case status != 200:
		return grant{}, fmt.Errorf("POST /connect: status %d: %s", status, body)
	}
	id, ports, err := parseConnect(body)
	return grant{src: src, dst: dst, ports: ports, id: id}, err
}

func (t *httpTarget) release(c int, g grant) error {
	b := append(t.bodies[c][:0], `{"id":`...)
	b = strconv.AppendUint(b, g.id, 10)
	b = append(b, '}')
	t.bodies[c] = b
	status, body, err := t.conns[c].do(reqRelease, b)
	if err == nil && status != 200 {
		err = fmt.Errorf("POST /release: status %d: %s", status, body)
	}
	return err
}

func (*httpTarget) planeOf(grant) int { return 0 }

func (t *httpTarget) serverCPU() (time.Duration, error) { return t.proc.cpu() }

// memMB is ftserve's resident set.
func (t *httpTarget) memMB() (float64, error) { return t.proc.rssMB() }

func (t *httpTarget) stats() (sysStats, error) {
	status, body, err := t.control.do(reqStats, nil)
	if err != nil {
		return sysStats{}, fmt.Errorf("GET /stats: %w", err)
	}
	if status != 200 {
		return sysStats{}, fmt.Errorf("GET /stats: status %d", status)
	}
	var resp struct {
		Open int `json:"open"`
		federation.Stats
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return sysStats{}, fmt.Errorf("GET /stats body: %w", err)
	}
	return fedSysStats(&resp.Stats, resp.Open), nil
}

func (t *httpTarget) stop() error {
	for _, hc := range t.conns {
		hc.close()
	}
	if t.control != nil {
		t.control.close()
	}
	var err error
	t.shutdown, err = t.proc.stop()
	return err
}

// serverProcs and generatorProcs split the host between ftserve and the
// generator: ftserve gets half the CPUs, the generator what is left.
func serverProcs() int    { return max(1, runtime.NumCPU()/2) }
func generatorProcs() int { return max(1, runtime.NumCPU()-serverProcs()) }

// httpRTSpec: -batch 1 because ftserve's default -batch 32 -maxwait 2ms
// makes a handful of HTTP clients wait out the timer (the timer-bound
// trap); 2 ms is the -maxwait default the guard is given.
func httpRTSpec(ftserveBin string) servingSpec {
	spec := servingSpec{layer: "ftserve", clients: runtime.NumCPU(), hold: 8,
		batch: 1, maxWait: 2 * time.Millisecond}
	spec.build = func() (target, []*faults.FaultSet, error) {
		proc, err := spawnFtserve(ftserveBin, serverProcs(), "-batch", "1")
		if err != nil {
			return nil, nil, err
		}
		t, err := newHTTPTarget(proc, spec.clients)
		if err != nil {
			return nil, nil, err
		}
		return t, nil, nil
	}
	return spec
}
