package db

import (
	"time"

	"bitdew/internal/rpc"
)

// service is the rpc service name a served Store answers under.
const service = "db"

// callTimeout bounds every call of a Client: a server that accepts and
// never answers fails the call instead of hanging it. A store operation on
// loopback takes microseconds.
const callTimeout = 2 * time.Second

// The wire types of the db service.
type (
	keyArgs struct {
		Table, Key string
	}
	getReply struct {
		Value []byte
		Found bool
	}
)

// Mount registers store's Apply, Get and Keys on m as the "db" service.
func Mount(m *rpc.Mux, store Store) {
	rpc.Register(m, service, "Apply", func(batch []Mutation) (struct{}, error) {
		return struct{}{}, store.Apply(batch)
	})
	rpc.Register(m, service, "Get", func(a keyArgs) (getReply, error) {
		v, found, err := store.Get(a.Table, a.Key)
		return getReply{Value: v, Found: found}, err
	})
	rpc.Register(m, service, "Keys", func(table string) ([]string, error) {
		return store.Keys(table)
	})
}

// NewServer serves store on addr ("127.0.0.1:0" picks a free port), playing
// the role of the MySQL server in the paper's evaluation: a separate engine
// reached through a client/server protocol, so every operation pays a real
// round trip.
func NewServer(store Store, addr string) (*rpc.Server, error) {
	m := rpc.NewMux()
	Mount(m, store)
	return rpc.Listen(addr, m)
}

// Client is a Store served by a db server, reached over one multiplexed
// connection: the DBCP arm of Table 2. Concurrent callers share the
// connection, the way the plane shares one client per shard.
type Client struct {
	c rpc.Client
}

// Dial connects a Client to the db server at addr.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial(addr, rpc.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Apply sends the batch in one call.
func (c *Client) Apply(batch []Mutation) error    { return c.c.Call(service, "Apply", batch, nil) }
func (c *Client) Put(t, k string, v []byte) error { return ApplyRow(c, 'P', t, k, v) }
func (c *Client) Delete(t, k string) error        { return ApplyRow(c, 'D', t, k, nil) }

func (c *Client) Get(table, key string) ([]byte, bool, error) {
	var r getReply
	if err := c.c.Call(service, "Get", keyArgs{Table: table, Key: key}, &r); err != nil {
		return nil, false, err
	}
	return r.Value, r.Found, nil
}

func (c *Client) Keys(table string) ([]string, error) {
	var keys []string
	if err := c.c.Call(service, "Keys", table, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}

// Scan lists the table's keys and then gets each one.
func (c *Client) Scan(table string, fn func(key string, value []byte) bool) error {
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

func (c *Client) Close() error { return c.c.Close() }

// UnpooledStore implements Store by dialling a fresh connection for every
// single operation — exactly the behaviour the paper measured for MySQL
// "without DBCP", which it found to be a clear bottleneck (Table 2).
type UnpooledStore struct {
	addr string
}

// NewUnpooledStore returns a connection-per-operation client of the db
// server at addr.
func NewUnpooledStore(addr string) *UnpooledStore { return &UnpooledStore{addr: addr} }

func (u *UnpooledStore) with(fn func(*Client) error) error {
	c, err := Dial(u.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

func (u *UnpooledStore) Apply(batch []Mutation) error {
	return u.with(func(c *Client) error { return c.Apply(batch) })
}

func (u *UnpooledStore) Put(t, k string, v []byte) error { return ApplyRow(u, 'P', t, k, v) }
func (u *UnpooledStore) Delete(t, k string) error        { return ApplyRow(u, 'D', t, k, nil) }

func (u *UnpooledStore) Get(table, key string) (v []byte, found bool, err error) {
	err = u.with(func(c *Client) error {
		v, found, err = c.Get(table, key)
		return err
	})
	return v, found, err
}

func (u *UnpooledStore) Keys(table string) (keys []string, err error) {
	err = u.with(func(c *Client) error {
		keys, err = c.Keys(table)
		return err
	})
	return keys, err
}

func (u *UnpooledStore) Scan(table string, fn func(string, []byte) bool) error {
	return u.with(func(c *Client) error { return c.Scan(table, fn) })
}

func (u *UnpooledStore) Close() error { return nil }
