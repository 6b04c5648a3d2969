package main

// The benchmark's own closed-loop HTTP/1.1 client: one keep-alive TCP
// connection per worker, requests written by hand, replies read with
// net/http's response parser. A worker sends its next request only
// after the previous reply's last byte arrived, as a vehicle waits for
// its decision.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// loadConn is one keep-alive connection to the server under test.
type loadConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialConn(addr string) (*loadConn, error) {
	k := &loadConn{addr: addr}
	return k, k.redial()
}

func (k *loadConn) redial() error {
	if k.c != nil {
		k.c.Close()
	}
	c, err := net.DialTimeout("tcp", k.addr, 5*time.Second)
	if err != nil {
		k.c = nil
		return err
	}
	k.c = c
	k.br = bufio.NewReaderSize(c, 64<<10)
	return nil
}

func (k *loadConn) close() {
	if k.c != nil {
		k.c.Close()
	}
}

// reply is one server reply.
type reply struct {
	status int
	reqID  string
	body   []byte
}

// do sends one request and reads the whole reply. A transport error
// drops the connection; the next call dials a fresh one.
func (k *loadConn) do(method, path string, body []byte) (reply, error) {
	if k.c == nil {
		if err := k.redial(); err != nil {
			return reply{}, err
		}
	}
	k.buf = append(k.buf[:0], method...)
	k.buf = append(k.buf, ' ')
	k.buf = append(k.buf, path...)
	k.buf = append(k.buf, " HTTP/1.1\r\nHost: idled\r\n"...)
	if method != http.MethodGet {
		k.buf = append(k.buf, "Content-Type: application/json\r\nContent-Length: "...)
		k.buf = strconv.AppendInt(k.buf, int64(len(body)), 10)
		k.buf = append(k.buf, "\r\n"...)
	}
	k.buf = append(k.buf, "\r\n"...)
	k.buf = append(k.buf, body...)
	if err := k.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return reply{}, k.fail(err)
	}
	if _, err := k.c.Write(k.buf); err != nil {
		return reply{}, k.fail(err)
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return reply{}, k.fail(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, k.fail(err)
	}
	if resp.Close {
		k.close()
		k.c = nil
	}
	return reply{status: resp.StatusCode, reqID: resp.Header.Get("X-Request-Id"), body: b}, nil
}

func (k *loadConn) fail(err error) error {
	k.close()
	k.c = nil
	return fmt.Errorf("%s: %w", k.addr, err)
}

// get is a one-off GET on a fresh connection (health checks, scrapes).
func get(addr, path string) (reply, error) {
	k, err := dialConn(addr)
	if err != nil {
		return reply{}, err
	}
	defer k.close()
	return k.do(http.MethodGet, path, nil)
}
