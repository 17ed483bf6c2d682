package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /connect and /release bodies take a fast road: a small body of
// known length is read whole and scanned for the verb's fixed shape, and
// the 200 answer is appended by hand. The scanner only accepts; every
// body it declines goes to decodeBody whole, so decodeBody stays the one
// statement of what a body may be and of every 400.

// maxFastBody bounds the bodies the scanner reads; a /connect body with
// two 19-digit endpoints and a whitespace margin fits.
const maxFastBody = 128

// bufPool holds the buffers a hot verb reads its body into and then
// appends its answer to.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*maxFastBody)
	return &b
}}

// jsonContentType is the one Content-Type value every appended answer
// shares; net/http only reads it.
var jsonContentType = []string{"application/json"}

// field is one key of a fixed-shape body. A signed field is a Go int:
// its value may carry a minus sign and is at most math.MaxInt in
// magnitude. An unsigned one is a uint64, which encoding/json refuses
// with any sign, "-0" included.
type field struct {
	name   string
	signed bool
}

var (
	connectFields = []field{{"src", true}, {"dst", true}}
	releaseFields = []field{{"id", false}}
)

// scanBody reads r's body into buf and scans it for one object naming
// each of fields exactly once, storing field i's value in vals[i] (a
// signed value as its two's complement). It reads only a body whose
// Content-Length is at most maxFastBody, and accepts only what the
// strict decoder reads the same way. When it declines, r.Body replays
// the bytes it read ahead of the rest, so decodeBody sees the body whole.
func scanBody(r *http.Request, buf []byte, fields []field, vals []uint64) bool {
	n := r.ContentLength
	if n < 0 || n > maxFastBody {
		return false
	}
	// One byte past the declared length tells a body that ends there
	// from one that runs on.
	b := buf[:n+1]
	got, err := io.ReadFull(r.Body, b)
	if int64(got) == n && err == io.ErrUnexpectedEOF && scanFields(b[:got], fields, vals) {
		return true
	}
	r.Body = struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(b[:got]), r.Body), r.Body}
	return false
}

// scanFields is scanBody's grammar: JSON whitespace around one object
// whose keys are fields' names, lowercase and unescaped, each once in
// any order, each with an integer value in JSON's number grammar that
// fits its field.
func scanFields(b []byte, fields []field, vals []uint64) bool {
	var seen uint
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	for {
		i = skipSpace(b, i+1)
		if i == len(b) || b[i] != '"' {
			return false
		}
		end := bytes.IndexByte(b[i+1:], '"')
		if end < 0 {
			return false
		}
		key := b[i+1 : i+1+end]
		k := 0
		for k < len(fields) && string(key) != fields[k].name {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		i = skipSpace(b, i+end+2)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		v, next, ok := scanInt(b, i, fields[k].signed)
		if !ok {
			return false
		}
		vals[k] = v
		i = skipSpace(b, next)
		if i == len(b) {
			return false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return false
		}
	}
	return seen == 1<<len(fields)-1 && skipSpace(b, i+1) == len(b)
}

// scanInt scans a JSON integer at b[i:] and returns its value and the
// index after it. A number with a fraction or an exponent stops at the
// '.' or 'e', which no caller accepts next.
func scanInt(b []byte, i int, signed bool) (v uint64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		if !signed {
			return 0, i, false
		}
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	// At least one digit, and no leading zero before another.
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, i, false
	}
	if signed {
		if v > math.MaxInt {
			return 0, i, false
		}
		if neg {
			v = -v
		}
	}
	return v, i, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// quotePlane is a plane name as encoding/json writes it, HTML escaping
// and invalid UTF-8 replacement included.
func quotePlane(name string) []byte {
	q, _ := json.Marshal(name) // a string always marshals
	return q
}

// appendConnect appends the 200 /connect body, byte for byte what
// json.NewEncoder writes for the connectResponse; plane is the name
// already quoted by quotePlane.
func appendConnect(b []byte, id uint64, src, dst int, ports []int, plane []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(dst), 10)
	b = append(b, `,"ports":`...)
	if ports == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range ports {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"plane":`...)
	b = append(b, plane...)
	return append(b, "}\n"...)
}

// appendRelease appends the 200 /release body, byte for byte what
// json.NewEncoder writes for the releaseResponse.
func appendRelease(b []byte, id uint64) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	return append(b, ",\"released\":true}\n"...)
}

// writeOK answers 200 with an appended body in one write.
func writeOK(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(body); err != nil {
		log.Printf("ftserve: writing response: %v", err)
	}
}
