// Package codec is the one gob codec for every standalone blob in the plane:
// rpc payloads (internal/rpc) and the rows the D* services keep serialised in
// their db.Store (catalog, scheduler, repl, collective). Streams — rpc frames
// on a connection, the db WAL and snapshots, swarm — hold one encoder or
// decoder for their whole life and do not come through here.
//
// A standalone blob must open with the type definitions of its value, because
// whoever decodes it has seen nothing before. A fresh gob.Encoder re-derives
// and re-emits those definitions every time, and a fresh gob.Decoder compiles
// a decode engine from them every time: ~16 of the ~20 allocations of one
// encode, and ~7 KB per decoded value. Every operation pays that for each
// payload it sends and each row it reads back.
//
// The splice pool removes the cost without changing the format. For each
// concrete type it caches the definition bytes a fresh encoder emits before
// the first value (the prefix) and keeps a pool of warm encoders that have
// already emitted them; a warm encoder then produces just the value bytes,
// and the cached prefix is spliced back in front. The result is
// byte-identical to what a fresh encoder in this process produces, so any
// decoder anywhere reads it unchanged. Decoding mirrors the trick: when a
// blob opens with the receiver type's own prefix, the prefix is stripped and
// the value bytes go to a pooled decoder that saw the definitions once at
// warm-up.
//
// The prefix carries the type's NAME and the type ids gob hands out per
// process in first-use order. A blob from a differently named type (or from
// a process that met its types in another order) therefore does not open
// with the receiver's prefix and is decoded by a fresh decoder — always
// correct, never warm. Hence the rule for rpc methods: one declared argument
// type and one reply type, shared by Register and the client. ForeignDecodes
// counts the blobs that broke it.
//
// Splicing is only sound for types whose encoder state cannot grow after
// warm-up. A value with a reachable interface field may introduce a new
// dynamic type mid-stream; the warm encoder would register it and omit its
// definitions from the next blob, which a standalone decoder has never
// seen. Types with reachable interfaces (or channels/funcs, which gob
// rejects anyway) are therefore marked unsafe at first use and always take
// the fresh path. Every other failure mode — prefix mismatch on decode, an
// encode error on a warm encoder — falls back to a fresh encoder/decoder,
// whose output and behaviour are always correct.
package codec

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"sync/atomic"
)

// bufPool recycles scratch buffers for the fresh encode path.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// foreign counts decodes of a splice-safe receiver whose blob opened with
// another type's prefix.
var foreign atomic.Uint64

// ForeignDecodes returns how many blobs so far were decoded by a fresh
// decoder because they did not open with their receiver type's own prefix —
// the signature of a sender and a receiver declaring two types for one
// payload. Types that can never splice (reachable interface) are not counted.
func ForeignDecodes() uint64 { return foreign.Load() }

// Marshal gob-encodes v into a standalone blob (type definitions included).
// Splice-safe types go through the warm pools — byte-identical output at a
// fraction of the allocations; everything else takes a fresh encoder over a
// pooled buffer.
func Marshal(v any) ([]byte, error) {
	if v != nil {
		if out, handled, err := splicerFor(reflect.TypeOf(v)).spliceEncode(v); handled {
			return out, err
		}
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	bufPool.Put(buf)
	return out, nil
}

// Unmarshal reads a standalone gob blob into v (a pointer). Blobs opening
// with the receiver type's own definition prefix ride the warm decoder pool;
// any other layout falls back to a fresh decoder. Like gob, it leaves alone
// the fields of *v that the blob omits (zero values are not sent): decode
// into a zero receiver unless merging is what you want.
func Unmarshal(raw []byte, v any) error {
	if v != nil {
		if handled, err := splicerFor(reflect.TypeOf(v)).spliceDecode(raw, v); handled {
			return err
		}
	}
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// splicer is the per-type state: the safety verdict, the definition prefix,
// and pools of warm encoder/decoder streams.
type splicer struct {
	// safe is the interface-free verdict, immutable after construction.
	safe bool
	// state is published exactly once by derivePrefix (under mu) and never
	// mutated afterwards, so the hot paths read it lock-free.
	state atomic.Pointer[spliceState]
	mu    sync.Mutex

	encs sync.Pool // *spliceEnc
	decs sync.Pool // *spliceDec
}

// spliceState is the immutable outcome of prefix derivation.
type spliceState struct {
	ok     bool // splicing enabled for the type
	prefix []byte
}

// spliceEnc is one warm encoder stream: after warm-up its Encode output is
// value bytes only.
type spliceEnc struct {
	buf  bytes.Buffer
	enc  *gob.Encoder
	warm bool
}

// spliceDec is one warm decoder stream: after warm-up it accepts value bytes
// with the prefix stripped.
type spliceDec struct {
	rd   bytes.Reader
	dec  *gob.Decoder
	warm bool
}

// splicers maps reflect.Type to *splicer. Entries are never removed: the
// set of types is the registered rpc signatures plus the stored row types, a
// small closed universe.
var splicers sync.Map

func splicerFor(t reflect.Type) *splicer {
	if s, ok := splicers.Load(t); ok {
		return s.(*splicer)
	}
	s := &splicer{safe: spliceSafe(t, nil)}
	actual, _ := splicers.LoadOrStore(t, s)
	return actual.(*splicer)
}

// spliceSafe reports whether values of type t can never enlarge an
// encoder's type-definition state after warm-up: no reachable interface
// (dynamic types), channel or func (gob rejects those; the fresh path owns
// the error).
func spliceSafe(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true
	}
	switch t.Kind() {
	case reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false
	case reflect.Pointer, reflect.Slice, reflect.Array:
		if seen == nil {
			seen = make(map[reflect.Type]bool)
		}
		seen[t] = true
		return spliceSafe(t.Elem(), seen)
	case reflect.Map:
		if seen == nil {
			seen = make(map[reflect.Type]bool)
		}
		seen[t] = true
		return spliceSafe(t.Key(), seen) && spliceSafe(t.Elem(), seen)
	case reflect.Struct:
		if seen == nil {
			seen = make(map[reflect.Type]bool)
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // gob ignores unexported fields
			}
			if !spliceSafe(f.Type, seen) {
				return false
			}
		}
	}
	return true
}

// derivePrefix computes the type-definition prefix from a live value: a
// fresh encoder's first blob is prefix+value, its second is value alone, and
// both value encodings have the same length (a map may reorder its entries,
// nothing else differs), so the prefix is the difference.
// It publishes the splicer's state — enabled with the prefix, or disabled on
// any anomaly — and returns the complete first blob (a valid result for the
// caller). Must run with s.mu held, exactly once per splicer.
func (s *splicer) derivePrefix(v any) ([]byte, error) {
	e := &spliceEnc{}
	e.enc = gob.NewEncoder(&e.buf)
	if err := e.enc.Encode(v); err != nil {
		s.state.Store(&spliceState{})
		return nil, err
	}
	full := append([]byte(nil), e.buf.Bytes()...)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// The first blob is complete and valid; only the splice is off.
		s.state.Store(&spliceState{})
		return full, nil
	}
	val := e.buf.Len()
	if val > len(full) {
		// A type that encodes differently the second time cannot be spliced.
		s.state.Store(&spliceState{})
		return full, nil
	}
	s.state.Store(&spliceState{
		ok:     true,
		prefix: append([]byte(nil), full[:len(full)-val]...),
	})
	e.buf.Reset()
	e.warm = true
	s.encs.Put(e)
	return full, nil
}

// stateFor returns the published state, deriving it from v on first use.
// The returned blob is non-nil only when this call performed the derivation
// (its output doubles as the caller's result).
func (s *splicer) stateFor(v any) (st *spliceState, blob []byte, err error) {
	if st = s.state.Load(); st != nil {
		return st, nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st = s.state.Load(); st != nil {
		return st, nil, nil
	}
	blob, err = s.derivePrefix(v)
	return s.state.Load(), blob, err
}

// spliceEncode encodes v through the warm pool. handled is false when the
// caller must use the fresh path instead (unsafe type, or a warm encoder
// error whose result cannot be trusted).
func (s *splicer) spliceEncode(v any) (out []byte, handled bool, err error) {
	if !s.safe {
		return nil, false, nil
	}
	st, blob, err := s.stateFor(v)
	if blob != nil || err != nil {
		// This call performed the derivation; its blob (or error) is
		// authoritative.
		return blob, true, err
	}
	if !st.ok {
		return nil, false, nil
	}
	e, _ := s.encs.Get().(*spliceEnc)
	if e == nil {
		e = &spliceEnc{}
		e.enc = gob.NewEncoder(&e.buf)
	}
	if !e.warm {
		// First encode on this stream emits the definitions; discard them
		// and keep the stream.
		if err := e.enc.Encode(v); err != nil {
			return nil, false, nil
		}
		e.warm = true
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// The stream may hold partial state now; drop it and let the fresh
		// path produce the result (or the authoritative error).
		return nil, false, nil
	}
	val := e.buf.Bytes()
	out = make([]byte, len(st.prefix)+len(val))
	copy(out, st.prefix)
	copy(out[len(st.prefix):], val)
	e.buf.Reset()
	s.encs.Put(e)
	return out, true, nil
}

// spliceDecode decodes raw into v through the warm pool when raw opens with
// this type's own prefix. handled is false when the caller must use a fresh
// decoder (unsafe type, foreign prefix, or a warm-stream error).
func (s *splicer) spliceDecode(raw []byte, v any) (handled bool, err error) {
	if !s.safe {
		return false, nil
	}
	// Derive the prefix from the receiver's own type if this is first use:
	// definitions depend only on the type, so encoding the value v points at
	// yields them. A receiver type that doesn't encode stays on the fresh
	// path (derivePrefix published a disabled state).
	st, _, _ := s.stateFor(v)
	if st == nil || !st.ok {
		return false, nil
	}
	if !bytes.HasPrefix(raw, st.prefix) {
		// Foreign sender layout (different build, compatible-but-different
		// type): the fresh path handles it.
		foreign.Add(1)
		return false, nil
	}
	d, _ := s.decs.Get().(*spliceDec)
	if d == nil {
		d = &spliceDec{}
	}
	if !d.warm {
		// Warm up on the full blob: the stream learns the definitions and
		// decodes the value in one go.
		d.rd.Reset(raw)
		d.dec = gob.NewDecoder(&d.rd)
		if err := d.dec.Decode(v); err != nil {
			return true, err
		}
		d.warm = true
		s.decs.Put(d)
		return true, nil
	}
	d.rd.Reset(raw[len(st.prefix):])
	if err := d.dec.Decode(v); err != nil {
		// Possibly mid-stream state corruption (e.g. duplicate definitions
		// from a superset sender); drop the stream and decode fresh, which
		// is always correct.
		return false, nil
	}
	s.decs.Put(d)
	return true, nil
}
