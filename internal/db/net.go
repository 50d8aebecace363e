package db

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"bitdew/internal/netsrv"
)

// dbRequest is one wire operation against a networked store.
type dbRequest struct {
	Op    byte // 'P' put, 'G' get, 'D' delete, 'K' keys, 'C' close
	Table string
	Key   string
	Value []byte
}

type dbResponse struct {
	Value []byte
	Keys  []string
	Found bool
	Err   string
}

// Server exposes a Store over TCP, playing the role of the MySQL server in
// the paper's evaluation: a separate engine reached through a client/server
// protocol, so every operation pays a real round trip.
type Server struct {
	srv   netsrv.Server
	store Store
}

// NewServer serves store on addr ("127.0.0.1:0" picks a free port).
func NewServer(store Store, addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("db: listen %s: %w", addr, err)
	}
	s := &Server{store: store}
	s.srv.Serve(lis, s.serveConn)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the server and severs every client connection.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req dbRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp dbResponse
		switch req.Op {
		case 'P':
			if err := s.store.Put(req.Table, req.Key, req.Value); err != nil {
				resp.Err = err.Error()
			}
		case 'G':
			v, ok, err := s.store.Get(req.Table, req.Key)
			resp.Value, resp.Found = v, ok
			if err != nil {
				resp.Err = err.Error()
			}
		case 'D':
			if err := s.store.Delete(req.Table, req.Key); err != nil {
				resp.Err = err.Error()
			}
		case 'K':
			keys, err := s.store.Keys(req.Table)
			resp.Keys = keys
			if err != nil {
				resp.Err = err.Error()
			}
		case 'C':
			_ = enc.Encode(resp)
			return
		default:
			resp.Err = fmt.Sprintf("db: unknown op %q", req.Op)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Conn is one live client connection to a db Server; it implements Store.
// A Conn serialises its own operations and is safe for concurrent use, but
// concurrent callers should prefer a Pool of Conns.
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialConn opens one connection to a db Server.
func DialConn(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("db: dial %s: %w", addr, err)
	}
	return &Conn{conn: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}, nil
}

func (c *Conn) roundTrip(req dbRequest) (dbResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return dbResponse{}, fmt.Errorf("db: send: %w", err)
	}
	var resp dbResponse
	if err := c.dec.Decode(&resp); err != nil {
		return dbResponse{}, fmt.Errorf("db: recv: %w", err)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("db: server: %s", resp.Err)
	}
	return resp, nil
}

func (c *Conn) Put(table, key string, value []byte) error {
	_, err := c.roundTrip(dbRequest{Op: 'P', Table: table, Key: key, Value: value})
	return err
}

func (c *Conn) Get(table, key string) ([]byte, bool, error) {
	resp, err := c.roundTrip(dbRequest{Op: 'G', Table: table, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

func (c *Conn) Delete(table, key string) error {
	_, err := c.roundTrip(dbRequest{Op: 'D', Table: table, Key: key})
	return err
}

func (c *Conn) Keys(table string) ([]string, error) {
	resp, err := c.roundTrip(dbRequest{Op: 'K', Table: table})
	if err != nil {
		return nil, err
	}
	return resp.Keys, nil
}

func (c *Conn) Scan(table string, fn func(key string, value []byte) bool) error {
	keys, err := c.Keys(table)
	if err != nil {
		return err
	}
	for _, k := range keys {
		v, ok, err := c.Get(table, k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.enc.Encode(dbRequest{Op: 'C'})
	return c.conn.Close()
}

// UnpooledStore implements Store by dialling a fresh connection for every
// single operation — exactly the behaviour the paper measured for MySQL
// "without DBCP", which it found to be a clear bottleneck (Table 2).
type UnpooledStore struct {
	addr string
}

// NewUnpooledStore returns a connection-per-operation client of the db
// server at addr.
func NewUnpooledStore(addr string) *UnpooledStore { return &UnpooledStore{addr: addr} }

func (u *UnpooledStore) with(fn func(*Conn) error) error {
	c, err := DialConn(u.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

func (u *UnpooledStore) Put(table, key string, value []byte) error {
	return u.with(func(c *Conn) error { return c.Put(table, key, value) })
}

func (u *UnpooledStore) Get(table, key string) (v []byte, found bool, err error) {
	err = u.with(func(c *Conn) error {
		v, found, err = c.Get(table, key)
		return err
	})
	return v, found, err
}

func (u *UnpooledStore) Delete(table, key string) error {
	return u.with(func(c *Conn) error { return c.Delete(table, key) })
}

func (u *UnpooledStore) Keys(table string) (keys []string, err error) {
	err = u.with(func(c *Conn) error {
		keys, err = c.Keys(table)
		return err
	})
	return keys, err
}

func (u *UnpooledStore) Scan(table string, fn func(string, []byte) bool) error {
	return u.with(func(c *Conn) error { return c.Scan(table, fn) })
}

func (u *UnpooledStore) Close() error { return nil }
