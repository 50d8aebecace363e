package codec_test

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/codec"
	"bitdew/internal/collective"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/protocols/swarm"
	"bitdew/internal/repository"
	"bitdew/internal/rpc"
	"bitdew/internal/runtime"
)

// The scheduler's and repl's row types are unexported; these have their
// shape, which is all a fingerprint knows. TestRowMirrorsMatchThePinnedRows
// decodes the rows those packages pin into them, so a mirror cannot drift.
type (
	schedulerRow struct {
		Data        data.Data
		Attr        attr.Attribute
		ScheduledAt time.Time
		Order       int
		Owners      map[string]time.Time
		Pinned      map[string]bool
	}
	replStateRow struct {
		Epoch  uint64
		Shards int
	}
)

var (
	universeOnce sync.Once
	universe     []reflect.Type
)

// planeTypes is every type the plane puts on the wire or in a store: the
// argument and reply types on the Mux of each shard of a booted 2-shard R=2
// plane and on the Mux of the swarm's tracker, a swarm peer and the
// networked db store, the catalog, scheduler and repl row types, and the
// intermediate data a MapReduce job stores as content.
func planeTypes(t testing.TB) []reflect.Type {
	universeOnce.Do(func() {
		plane, err := runtime.NewShardedContainer(runtime.ShardedConfig{Shards: 2, Replicas: 2, DisableFTP: true, DisableSwarm: true})
		if err != nil {
			t.Fatal(err)
		}
		defer plane.Close()
		seen := map[reflect.Type]bool{}
		add := func(types ...reflect.Type) {
			for _, typ := range types {
				if !seen[typ] {
					seen[typ] = true
					universe = append(universe, typ)
				}
			}
		}
		for i := 0; i < plane.N(); i++ {
			add(plane.Shard(i).Mux.Payloads()...)
		}
		tracker, err := swarm.NewTracker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tracker.Close()
		peer, err := swarm.NewLeecher(repository.NewMemBackend(), swarm.NewMetainfo("f", []byte("content"), 4), tracker.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		m := rpc.NewMux()
		tracker.Mount(m)
		peer.Mount(m)
		db.Mount(m, db.NewRowStore())
		add(m.Payloads()...)
		add(reflect.TypeOf(data.Data{}), reflect.TypeOf([]data.Locator{}), reflect.TypeOf(db.Mutation{}),
			reflect.TypeOf(schedulerRow{}), reflect.TypeOf(replStateRow{}), reflect.TypeOf([]collective.KV{}))
	})
	if len(universe) < 40 {
		t.Fatalf("the plane registers and stores only %d types", len(universe))
	}
	return universe
}

// arbitrary fills v with a random value: empty-but-not-nil slices and maps,
// nil and set pointers, and times with a monotonic reading among them.
func arbitrary(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(r.Uint64()) >> r.Intn(64))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.Uint64() >> r.Intn(64))
	case reflect.String:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		v.SetString(string(b))
	case reflect.Slice:
		if r.Intn(4) > 0 {
			v.Set(reflect.MakeSlice(v.Type(), r.Intn(4), 4))
			for i := 0; i < v.Len(); i++ {
				arbitrary(v.Index(i), r)
			}
		}
	case reflect.Map:
		if r.Intn(4) > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for n := r.Intn(4); n > 0; n-- {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				arbitrary(k, r)
				arbitrary(e, r)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Pointer:
		if r.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			arbitrary(v.Elem(), r)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			when := []time.Time{{}, time.Now(), time.Unix(r.Int63n(1<<33), r.Int63n(1e9)), time.Unix(r.Int63n(1<<33), 0).UTC()}
			v.Set(reflect.ValueOf(when[r.Intn(len(when))]))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				arbitrary(v.Field(i), r)
			}
		}
	}
}

// normalise does to a value what gob did to one on its way through, and the
// codec does: an empty slice or map is nil, a time has no monotonic reading.
func normalise(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		}
		if v.Kind() == reflect.Map && v.Len() > 0 {
			fresh := reflect.MakeMap(v.Type())
			for it := v.MapRange(); it.Next(); {
				e := reflect.New(v.Type().Elem()).Elem()
				e.Set(it.Value())
				normalise(e)
				fresh.SetMapIndex(it.Key(), e)
			}
			v.Set(fresh)
		}
		for i := 0; v.Kind() == reflect.Slice && i < v.Len(); i++ {
			normalise(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			normalise(v.Elem())
		}
	case reflect.Struct:
		if t, ok := v.Addr().Interface().(*time.Time); ok {
			*t = t.Round(0)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				normalise(v.Field(i))
			}
		}
	}
}

// TestPlaneTypesRoundTrip: every type of the plane carries random values
// through the codec and back unchanged, up to gob's own normalisation.
func TestPlaneTypesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, typ := range planeTypes(t) {
		for i := 0; i < 50; i++ {
			in, out := reflect.New(typ), reflect.New(typ)
			arbitrary(in.Elem(), r)
			raw, err := codec.Marshal(in.Interface())
			if err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
			if err := codec.Unmarshal(raw, out.Interface()); err != nil {
				t.Fatalf("%s: %v\nvalue %+v\nblob %x", typ, err, in.Elem(), raw)
			}
			normalise(in.Elem())
			if !reflect.DeepEqual(in.Interface(), out.Interface()) {
				t.Fatalf("%s changed on its way through:\n in %+v\nout %+v", typ, in.Elem(), out.Elem())
			}
		}
	}
}

// TestRowMirrorsMatchThePinnedRows decodes the rows that the scheduler's and
// repl's own tests pin byte for byte into this file's mirrors of their types.
func TestRowMirrorsMatchThePinnedRows(t *testing.T) {
	for _, c := range []struct {
		row  string
		into any
	}{
		{"6697c2d5ac0206", &replStateRow{}},
		{"cd1d21452330303030303030312d30303030303030322d30303030303030332d30303030303030340670696e6e65640006000f010000000ec0b0b0c000000000ffff04636f6c6c04018080c58bc6d10100056f746865720468747470010f010000000ec0b0b0c100000000ffff0e03066d61737465720f010000000ec0b0b0c000000000ffff0277310f010000000ec0b0b0fc00000000ffff0277320f010000000ec0b0b0c200000000ffff01066d617374657201", &schedulerRow{}},
	} {
		raw, err := hex.DecodeString(c.row)
		if err != nil {
			t.Fatal(err)
		}
		if err := codec.Unmarshal(raw, c.into); err != nil {
			t.Errorf("%T: %v", c.into, err)
		}
	}
}

// FuzzUnmarshal: no bytes make Unmarshal panic, whichever of the plane's
// types they claim to be, and what it accepts encodes to bytes that read
// back as themselves.
func FuzzUnmarshal(f *testing.F) {
	types := planeTypes(f)
	byFingerprint := map[[4]byte]reflect.Type{}
	r := rand.New(rand.NewSource(2))
	for _, typ := range types {
		v := reflect.New(typ)
		arbitrary(v.Elem(), r)
		raw, err := codec.Marshal(v.Interface())
		if err != nil {
			f.Fatal(err)
		}
		byFingerprint[[4]byte(raw)] = typ
		for _, cut := range []int{len(raw), len(raw) - 1, len(raw) / 2, 4} {
			f.Add(raw[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		typ := types[len(raw)%len(types)]
		if len(raw) >= 4 && byFingerprint[[4]byte(raw)] != nil {
			typ = byFingerprint[[4]byte(raw)]
		}
		first := reflect.New(typ)
		if codec.Unmarshal(raw, first.Interface()) != nil {
			return
		}
		again, err := codec.Marshal(first.Interface())
		if err != nil {
			t.Fatalf("%s decoded and does not encode: %v", typ, err)
		}
		second := reflect.New(typ)
		if err := codec.Unmarshal(again, second.Interface()); err != nil {
			t.Fatalf("%s: its own encoding %x does not decode: %v", typ, again, err)
		}
		// Bytes, not DeepEqual: two decodes of one fixed time zone are two
		// *time.Location, equal and not identical.
		if third, err := codec.Marshal(second.Interface()); err != nil || !bytes.Equal(again, third) {
			t.Fatalf("%s: %x read back and encoded again is %x, %v", typ, again, third, err)
		}
	})
}
