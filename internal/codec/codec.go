// Package codec is the one schema codec for every standalone blob in the
// plane: rpc frames and payloads (internal/rpc) and the rows the D* services
// keep serialised in their db.Store (catalog, scheduler, repl, collective).
// The db WAL and snapshot streams, db/net and swarm hold one gob encoder per
// stream and carry these blobs as opaque bytes; they do not come through here.
//
// The plane's wire and row types are a closed universe both ends compile in,
// so a blob describes nothing: it is a 4-byte type fingerprint — FNV-1a of
// the type's kinds and exported field names, the same in every process — and
// then the value, field after field (DESIGN.md has the format table). A
// receiver of another shape is a named error on the first call, never a slow
// path or a misread, and what cannot be carried at all is refused when its
// type is compiled, by field path.
package codec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"time"
)

// prog is one type's program, compiled by reflection on first use.
type prog struct {
	t         reflect.Type
	op        reflect.Kind // t's kind; every int kind is Int64, every uint kind Uint64
	sig       string       // structural signature
	fp        uint32       // FNV-1a of sig
	min       int          // fewest bytes a value encodes to
	key, elem *prog        // of a map; of a map, slice or pointer
	fields    []*prog      // of a struct: its exported fields,
	index     []int        // and where in the struct they are
}

var (
	progs    sync.Map // reflect.Type -> *prog
	names    sync.Map // fingerprint -> name of the first type compiled to it
	scratch  = sync.Pool{New: func() any { return new([]byte) }}
	timeType = reflect.TypeOf(time.Time{})
)

// Compile reports the first component of t the codec cannot carry, by path.
func Compile(t reflect.Type) error {
	_, err := compile(t, "", nil)
	return err
}

// Append appends v's blob to dst. A pointer is followed, as Unmarshal's is.
func Append(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return dst, fmt.Errorf("codec: cannot encode nil")
	}
	p, err := compile(rv.Type(), "", nil)
	if err != nil {
		return dst, err
	}
	return p.enc(binary.BigEndian.AppendUint32(dst, p.fp), rv), nil
}

// Marshal returns v's blob in a slice of exactly its size.
func Marshal(v any) ([]byte, error) {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	var err error
	if *buf, err = Append((*buf)[:0], v); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(*buf)), *buf...), nil
}

// Unmarshal decodes a blob into v, a non-nil pointer to a value of the type
// that was encoded. It overwrites every field of *v and allocates only what
// the value holds: strings, maps, and the slices *v has no room for.
func Unmarshal(raw []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: receiver %T is not a non-nil pointer", v)
	}
	p, err := compile(rv.Type().Elem(), "", nil)
	if err != nil {
		return err
	}
	var head [4]byte
	copy(head[:], raw)
	if fp := binary.BigEndian.Uint32(head[:]); len(raw) < 4 || fp != p.fp {
		sent, ok := names.Load(fp)
		if !ok || len(raw) < 4 {
			sent = fmt.Sprintf("a type this process has not met (fingerprint %08x)", fp)
		}
		return fmt.Errorf("codec: the %d-byte blob holds %s, the receiver is %s (fingerprint %08x)", len(raw), sent, p.t, p.fp)
	}
	r := reader{b: raw[4:]}
	p.dec(&r, rv.Elem())
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("codec: decoding %s: %w", p.t, r.err)
	}
	return nil
}

// compile builds and caches the program of t, which sits at path inside the
// type being compiled (at "", is it); busy holds the types on the way down.
func compile(t reflect.Type, path string, busy []reflect.Type) (*prog, error) {
	if p, ok := progs.Load(t); ok {
		return p.(*prog), nil
	}
	for _, b := range busy {
		if b == t {
			return nil, fmt.Errorf("codec: %s: recursive type %s cannot be carried", path, t)
		}
	}
	busy, path = append(busy, t), cmp.Or(path, t.String())
	p := &prog{t: t, op: t.Kind(), sig: t.Kind().String(), min: 1}
	var err error
	switch k := t.Kind(); {
	case t == timeType:
		p.sig = "time"
	case k == reflect.Bool, k == reflect.String:
	case k >= reflect.Int && k <= reflect.Int64:
		p.op = reflect.Int64
	case k >= reflect.Uint && k <= reflect.Uint64:
		p.op = reflect.Uint64
	case k == reflect.Slice, k == reflect.Pointer, k == reflect.Map:
		mark := map[bool]string{false: "[]", true: "*"}[k == reflect.Pointer]
		if p.elem, err = compile(t.Elem(), path+mark, busy); err != nil {
			return nil, err
		}
		if k == reflect.Slice && p.elem.min == 0 {
			return nil, fmt.Errorf("codec: %s: a slice of zero-width %s cannot be carried", path, t.Elem())
		}
		p.sig = mark + p.elem.sig
		if k != reflect.Map {
			break
		}
		if p.key, err = compile(t.Key(), path+"[key]", busy); err != nil {
			return nil, err
		}
		if p.key.op != reflect.String && p.key.op != reflect.Int64 {
			return nil, fmt.Errorf("codec: %s: a map keyed by %s cannot be carried", path, t.Key())
		}
		p.sig = "map[" + p.key.sig + "]" + p.elem.sig
	case k == reflect.Struct:
		p.sig, p.min = "struct{", 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fp, err := compile(f.Type, path+"."+f.Name, busy)
			if err != nil {
				return nil, err
			}
			p.fields, p.index = append(p.fields, fp), append(p.index, i)
			p.sig, p.min = p.sig+f.Name+" "+fp.sig+";", p.min+fp.min
		}
		p.sig += "}"
	default:
		return nil, fmt.Errorf("codec: %s: %s (a %s) cannot be carried", path, t, k)
	}
	h := fnv.New32a()
	h.Write([]byte(p.sig))
	p.fp = h.Sum32()
	names.LoadOrStore(p.fp, fmt.Sprintf("%s (fingerprint %08x)", t, p.fp))
	actual, _ := progs.LoadOrStore(t, p)
	return actual.(*prog), nil
}

func (p *prog) enc(b []byte, v reflect.Value) []byte {
	switch p.op {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if p.elem.t.Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		for i, n := 0, v.Len(); i < n; i++ {
			b = p.elem.enc(b, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.enc(append(b, 1), v.Elem())
	case reflect.Map:
		keys := v.MapKeys()
		if len(keys) > 1 {
			sort.Slice(keys, func(i, j int) bool {
				if p.key.op == reflect.String {
					return keys[i].String() < keys[j].String()
				}
				return keys[i].Int() < keys[j].Int()
			})
		}
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = p.elem.enc(p.key.enc(b, k), v.MapIndex(k))
		}
	case reflect.Struct:
		if p.t == timeType {
			// Interface() would copy an addressable struct to the heap. The
			// error is for a zone offset no time.Location can have.
			var bin []byte
			if v.CanAddr() {
				bin, _ = v.Addr().Interface().(*time.Time).MarshalBinary()
			} else {
				bin, _ = v.Interface().(time.Time).MarshalBinary()
			}
			return append(binary.AppendUvarint(b, uint64(len(bin))), bin...)
		}
		for j, f := range p.fields {
			b = f.enc(b, v.Field(p.index[j]))
		}
	}
	return b
}

// reader is the undecoded rest of a blob; its first error sticks and empties it.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, a...)
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// count reads a length prefix. Whatever it counts takes a byte or more each,
// so a count beyond the bytes that remain is refused before it is allocated.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("length %d exceeds the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes, n having come from count.
func (r *reader) take(n int) (b []byte) { b, r.b = r.b[:n], r.b[n:]; return b }

func (p *prog) dec(r *reader, v reflect.Value) {
	switch p.op {
	case reflect.Bool:
		v.SetBool(r.uvarint() != 0)
	case reflect.Int64:
		u := r.uvarint()
		v.SetInt(int64(u>>1) ^ -int64(u&1))
	case reflect.Uint64:
		v.SetUint(r.uvarint())
	case reflect.String:
		v.SetString(string(r.take(r.count())))
	case reflect.Slice:
		n := r.count()
		if n == 0 {
			v.SetZero()
			return
		}
		v.SetLen(0) // in place when v has the room
		v.Grow(n)
		v.SetLen(n)
		if p.elem.t.Kind() == reflect.Uint8 {
			copy(v.Bytes(), r.take(n))
			return
		}
		for i := 0; i < n && r.err == nil; i++ {
			p.elem.dec(r, v.Index(i))
		}
	case reflect.Pointer:
		if r.uvarint() == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(p.elem.t))
		p.elem.dec(r, v.Elem())
	case reflect.Map:
		n := r.count()
		if n == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMapWithSize(p.t, n)
		k, e := reflect.New(p.key.t).Elem(), reflect.New(p.elem.t).Elem()
		for ; n > 0 && r.err == nil; n-- {
			k.SetZero() // the map copied the last pair; share nothing with it
			e.SetZero()
			p.key.dec(r, k)
			p.elem.dec(r, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		if p.t == timeType {
			if err := v.Addr().Interface().(*time.Time).UnmarshalBinary(r.take(r.count())); err != nil {
				r.fail("%v", err)
			}
			return
		}
		for j, f := range p.fields {
			f.dec(r, v.Field(p.index[j]))
		}
	}
}
