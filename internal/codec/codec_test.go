package codec_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bitdew/internal/codec"
	"bitdew/internal/data"
)

type nested struct {
	Tags  map[string]int
	Peers []string
}

type rich struct {
	UID    data.UID
	Size   int64
	Small  int8
	Flags  data.Flags
	Blob   []byte
	On     bool
	Nested nested
	Ptr    *nested
	Nil    *nested
	When   time.Time
	Ranges map[int]uint64
	Rows   []nested
	hidden int
}

func richValue(i int) rich {
	return rich{
		UID: data.UID(fmt.Sprintf("rich-%d", i)), Size: int64(i) << 33, Small: -7, Flags: data.FlagExecutable,
		Blob: bytes.Repeat([]byte{byte(i)}, i%7+1), On: i%2 == 0,
		Nested: nested{Tags: map[string]int{"a": i, "b": -i}, Peers: []string{"p1", "p2"}},
		Ptr:    &nested{Peers: []string{"q"}},
		When:   time.Date(2008, 11, 15, 12, 0, i, 0, time.UTC),
		Ranges: map[int]uint64{3: 1, -1: 2, 0: 3},
		Rows:   []nested{{Peers: []string{"r"}}, {}},
	}
}

// TestRoundTrip: a value of every carried kind comes back equal, by value
// and through a pointer, and an unexported field is not carried.
func TestRoundTrip(t *testing.T) {
	for i := 0; i < 20; i++ {
		in := richValue(i)
		in.hidden = 9
		byValue, err := codec.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		byPointer, err := codec.Marshal(&in)
		if err != nil || !bytes.Equal(byValue, byPointer) {
			t.Fatalf("Marshal(&v) = %x, %v; Marshal(v) = %x", byPointer, err, byValue)
		}
		var out rich
		if err := codec.Unmarshal(byValue, &out); err != nil {
			t.Fatal(err)
		}
		in.hidden = 0
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %d:\n in %+v\nout %+v", i, in, out)
		}
	}
}

// TestNormalisation holds the codec to what gob did to a value on its way
// through: empty slices and maps come back nil, a time loses its monotonic
// clock reading, and every field of a used receiver is overwritten.
func TestNormalisation(t *testing.T) {
	now := time.Now()
	in := rich{Blob: []byte{}, Nested: nested{Tags: map[string]int{}, Peers: []string{}}, When: now}
	raw, err := codec.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out := richValue(3) // a receiver full of somebody else's values
	if err := codec.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if want := (rich{When: now.Round(0)}); !reflect.DeepEqual(out, want) {
		t.Fatalf("decoded %+v, want %+v", out, want)
	}
	if !out.When.Equal(now) || out.When.Location() != now.Location() {
		t.Fatalf("time %v came back as %v", now, out.When)
	}
}

type other struct {
	UID  string
	Size int32
}

// TestFingerprintMismatchIsNamed: a blob of one type handed to a receiver of
// another is an error that names both, never a best-effort decode; the same
// shape under another name is the same type.
func TestFingerprintMismatchIsNamed(t *testing.T) {
	raw, err := codec.Marshal(nested{Peers: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	var o other
	err = codec.Unmarshal(raw, &o)
	if err == nil || !strings.Contains(err.Error(), "codec_test.nested") || !strings.Contains(err.Error(), "codec_test.other") {
		t.Fatalf("nested into other = %v, want an error naming both types", err)
	}
	type renamed struct {
		Tags  map[string]int
		Peers []data.UID
	}
	var same renamed
	if err := codec.Unmarshal(raw, &same); err != nil || len(same.Peers) != 1 || same.Peers[0] != "x" {
		t.Fatalf("nested into a struct of the same shape = %+v, %v", same, err)
	}
	if err := codec.Unmarshal(raw[:3], &same); err == nil {
		t.Fatal("a three-byte blob decoded")
	}
	if err := codec.Unmarshal(raw, same); err == nil {
		t.Fatal("a receiver that is no pointer was accepted")
	}
}

type recursive struct {
	Name string
	Next *recursive
}

// TestCompileRefusesWithFieldPath: what the codec cannot carry is refused
// when its type is compiled, by the path to the offending component.
func TestCompileRefusesWithFieldPath(t *testing.T) {
	for _, c := range []struct {
		v    any
		path string
	}{
		{struct{ A struct{ V any } }{}, ".A.V"},
		{struct{ C []chan int }{}, ".C[]"},
		{struct{ F func() }{}, ".F"},
		{struct{ A [4]byte }{}, ".A"},
		{struct{ X float64 }{}, ".X"},
		{recursive{}, ".Next*"},
		{struct{ E []struct{ hidden int } }{}, ".E"},
		{struct{ M map[bool]int }{}, ".M"},
	} {
		err := codec.Compile(reflect.TypeOf(c.v))
		if err == nil || !strings.Contains(err.Error(), c.path+":") {
			t.Errorf("Compile(%T) = %v, want a refusal at %s", c.v, err, c.path)
		}
		if _, merr := codec.Marshal(c.v); merr == nil {
			t.Errorf("Marshal(%T) succeeded", c.v)
		}
	}
	if err := codec.Compile(reflect.TypeOf(richValue(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Marshal(nil); err == nil {
		t.Fatal("Marshal(nil) succeeded")
	}
}

// TestHostileLengthsAndTrailingBytes: a length prefix beyond the bytes that
// remain is refused before anything is allocated for it, and bytes after the
// value are an error.
func TestHostileLengthsAndTrailingBytes(t *testing.T) {
	raw, err := codec.Marshal([]data.Data{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	hostile := append(append([]byte(nil), raw[:4]...), 0xff, 0xff, 0xff, 0xff, 0x0f) // 2^32-1 elements, none follow
	var before, after runtime.MemStats
	var out []data.Data
	runtime.ReadMemStats(&before)
	err = codec.Unmarshal(hostile, &out)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a length of 2^32-1 with nothing behind it = %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing it allocated %d bytes", grew)
	}
	if err := codec.Unmarshal(append(raw, 0), &out); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("a blob with a trailing byte = %v", err)
	}
	for cut := 4; cut < len(raw); cut++ {
		if err := codec.Unmarshal(raw[:cut], &out); err == nil {
			t.Fatalf("the blob cut at %d of %d bytes decoded", cut, len(raw))
		}
	}
}

// TestDecodeAllocatesOnlyTheValue: decoding allocates what the value holds —
// here one backing array and three strings a row — and nothing to describe it.
func TestDecodeAllocatesOnlyTheValue(t *testing.T) {
	rows := make([]data.Data, 64)
	for i := range rows {
		rows[i] = *data.NewFromBytes(fmt.Sprintf("row-%d", i), []byte{byte(i)})
	}
	raw, err := codec.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var out []data.Data
	allocs := testing.AllocsPerRun(100, func() {
		out = nil
		if err := codec.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + 3*len(rows)); allocs > want {
		t.Fatalf("decoding %d rows took %.0f allocations, want at most %.0f", len(rows), allocs, want)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := codec.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(3 * len(rows)); allocs > want {
		t.Fatalf("decoding into a receiver with room took %.0f allocations, want at most %.0f", allocs, want)
	}
}

// TestConcurrent compiles and uses one type from many goroutines at once.
func TestConcurrent(t *testing.T) {
	type fresh struct { // met by nobody before the goroutines start
		N    int
		Rich rich
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := fresh{N: g*1000 + i, Rich: richValue(i)}
				raw, err := codec.Marshal(in)
				var out fresh
				if err == nil {
					err = codec.Unmarshal(raw, &out)
				}
				if err != nil || !reflect.DeepEqual(in, out) {
					t.Errorf("goroutine %d, round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// processReport encodes one value of several types, meeting the types in
// the given order, and reports each blob with what decoding it allocates.
func processReport(reverse bool) []string {
	when := time.Date(2008, 11, 15, 12, 0, 0, 0, time.UTC)
	values := []any{
		data.Data{UID: "u-1", Name: "n", Checksum: "c", Size: 3, Created: when},
		[]data.Locator{{DataUID: "u-1", Protocol: "http", Host: "h:1", Ref: "u-1"}},
		richValue(4),
		map[string]time.Time{"w1": when, "w2": when.Add(time.Second)},
		"a string",
	}
	if reverse {
		for i, j := 0, len(values)-1; i < j; i, j = i+1, j-1 {
			values[i], values[j] = values[j], values[i]
		}
	}
	var lines []string
	for _, v := range values {
		raw, err := codec.Marshal(v)
		if err != nil {
			panic(err)
		}
		into := reflect.New(reflect.TypeOf(v))
		allocs := testing.AllocsPerRun(20, func() {
			into.Elem().SetZero()
			if err := codec.Unmarshal(raw, into.Interface()); err != nil {
				panic(err)
			}
		})
		lines = append(lines, fmt.Sprintf("blob %T %s %.0f", v, hex.EncodeToString(raw), allocs))
	}
	sort.Strings(lines)
	return lines
}

// TestBlobIsProcessIndependent: another process, which meets its types in
// the opposite order, produces the same bytes and decodes them at the same
// allocation count — the case in which gob's per-process type ids sent every
// blob down the cold path.
func TestBlobIsProcessIndependent(t *testing.T) {
	if os.Getenv("CODEC_TEST_CHILD") != "" {
		fmt.Println(strings.Join(processReport(true), "\n"))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBlobIsProcessIndependent$")
	cmd.Env = append(os.Environ(), "CODEC_TEST_CHILD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var theirs []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "blob ") {
			theirs = append(theirs, line)
		}
	}
	if ours := processReport(false); !reflect.DeepEqual(ours, theirs) {
		t.Fatalf("this process:\n%s\nthe child, meeting the types in reverse:\n%s", strings.Join(ours, "\n"), strings.Join(theirs, "\n"))
	}
}
