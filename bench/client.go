package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon. It writes
// requests by hand and parses only what the harness needs, so the load
// generator's own CPU stays small beside the daemon's on a 2-core host.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	buf  []byte
}

func dial(base string) (*conn, error) {
	host := strings.TrimPrefix(base, "http://")
	c, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReader(c), host: host}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and reads the whole response. body nil means GET.
// The returned slice is valid until the next call.
func (c *conn) do(path string, body []byte) (status int, resp []byte, err error) {
	b := c.buf[:0]
	if body == nil {
		b = append(b, "GET "...)
	} else {
		b = append(b, "POST "...)
	}
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.buf = b
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, err
	}
	r, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	out, err := io.ReadAll(r.Body)
	if err != nil {
		return 0, nil, err
	}
	return r.StatusCode, out, nil
}

// get fetches path on a fresh connection: for the occasional /state or
// /metrics read outside any timed loop.
func get(base, path string) ([]byte, error) {
	c, err := dial(base)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do(path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return append([]byte(nil), body...), nil
}
