package db

// gatedStore enforces a per-key ownership gate over a set of key-addressed
// tables: point operations on a key the gate refuses fail with the gate's
// error before touching state (so they are always safe to retry on the real
// owner), and table walks skip refused rows — which keeps rows a shard holds
// but does not currently own (a rejoined shard's stale rows, rows installed
// by an inbound migration that has not committed, ghosts of a departed
// range) invisible to searches.
type gatedStore struct {
	Store
	gate  func(key string) error
	gated map[string]bool
}

// NewGatedStore wraps inner with gate on the named tables. Every other table
// passes through untouched.
func NewGatedStore(inner Store, gate func(key string) error, tables ...string) Store {
	gated := make(map[string]bool, len(tables))
	for _, t := range tables {
		gated[t] = true
	}
	return &gatedStore{Store: inner, gate: gate, gated: gated}
}

func (g *gatedStore) Put(table, key string, value []byte) error {
	if g.gated[table] {
		if err := g.gate(key); err != nil {
			return err
		}
	}
	return g.Store.Put(table, key, value)
}

func (g *gatedStore) Get(table, key string) ([]byte, bool, error) {
	if g.gated[table] {
		if err := g.gate(key); err != nil {
			return nil, false, err
		}
	}
	return g.Store.Get(table, key)
}

func (g *gatedStore) Delete(table, key string) error {
	if g.gated[table] {
		if err := g.gate(key); err != nil {
			return err
		}
	}
	return g.Store.Delete(table, key)
}

func (g *gatedStore) Keys(table string) ([]string, error) {
	keys, err := g.Store.Keys(table)
	if err != nil || !g.gated[table] {
		return keys, err
	}
	kept := keys[:0]
	for _, k := range keys {
		if g.gate(k) == nil {
			kept = append(kept, k)
		}
	}
	return kept, nil
}

func (g *gatedStore) Scan(table string, fn func(key string, value []byte) bool) error {
	if !g.gated[table] {
		return g.Store.Scan(table, fn)
	}
	return g.Store.Scan(table, func(k string, v []byte) bool {
		if g.gate(k) != nil {
			return true
		}
		return fn(k, v)
	})
}
