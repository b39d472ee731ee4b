package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is one keep-alive HTTP/1.1 connection to the server. It writes
// each request from a reused buffer and reads the reply into another, so
// the load generator allocates next to nothing per request and leaves
// the CPUs and the collector to the server under test. It relies on the
// server setting Content-Length on every reply, which it does.
type client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	c.close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.r = conn, bufio.NewReaderSize(conn, 64<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// requestTimeout bounds one request, so a stuck server fails the run
// instead of hanging it.
const requestTimeout = time.Minute

// do sends one call and reads the reply to its last byte. The returned
// body is valid until the next call.
func (c *client) do(k call) (status int, body []byte, err error) {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, routePaths[k.route]...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(k.body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, k.body...)
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(c.req); err != nil {
		c.close()
		return 0, nil, err
	}
	status, n, keep, err := c.readHead()
	if err == nil {
		if cap(c.body) < n {
			c.body = make([]byte, n)
		}
		c.body = c.body[:n]
		_, err = io.ReadFull(c.r, c.body)
	}
	if err != nil || !keep {
		c.close()
	}
	return status, c.body, err
}

// readHead reads the status line and headers, returning the status, the
// body length and whether the connection stays open.
func (c *client) readHead() (status, length int, keep bool, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, false, fmt.Errorf("bad status line %q", line)
	}
	length, keep = -1, true
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		switch {
		case bytes.EqualFold(name, []byte("content-length")):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil {
				return 0, 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("connection")) && bytes.EqualFold(bytes.TrimSpace(value), []byte("close")):
			keep = false
		}
	}
	if length < 0 {
		return 0, 0, false, errors.New("reply without Content-Length")
	}
	return status, length, keep, nil
}
