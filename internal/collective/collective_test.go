package collective

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bitdew/internal/codec"
	"bitdew/internal/core"
	"bitdew/internal/mw"
	"bitdew/internal/runtime"
)

func TestSplitJoinBytes(t *testing.T) {
	content := []byte("abcdefghij")
	cases := []struct {
		n    int
		want []string
	}{
		{1, []string{"abcdefghij"}},
		{2, []string{"abcde", "fghij"}},
		{3, []string{"abc", "def", "ghij"}},
		{10, []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}},
		{99, nil}, // clamped to len(content)
		{0, []string{"abcdefghij"}},
	}
	for _, tc := range cases {
		got := SplitBytes(content, tc.n)
		if tc.want != nil {
			if len(got) != len(tc.want) {
				t.Errorf("Split(%d) = %d parts, want %d", tc.n, len(got), len(tc.want))
				continue
			}
			for i := range got {
				if string(got[i]) != tc.want[i] {
					t.Errorf("Split(%d)[%d] = %q, want %q", tc.n, i, got[i], tc.want[i])
				}
			}
		}
		if !bytes.Equal(JoinBytes(got), content) {
			t.Errorf("Join(Split(%d)) != content", tc.n)
		}
	}
	empty := SplitBytes(nil, 4)
	if len(empty) != 1 || len(empty[0]) != 0 {
		t.Errorf("Split(nil) = %v", empty)
	}
}

func TestQuickSplitJoinRoundTrip(t *testing.T) {
	f := func(content []byte, nSeed uint8) bool {
		n := int(nSeed)%12 + 1
		parts := SplitBytes(content, n)
		if len(parts) == 0 {
			return false
		}
		return bytes.Equal(JoinBytes(parts), content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickPartitionStableAndBounded(t *testing.T) {
	f := func(key string, rSeed uint8) bool {
		r := int(rSeed)%16 + 1
		p := partition(key, r)
		return p >= 0 && p < r && p == partition(key, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKVCodecRoundTrip(t *testing.T) {
	in := []KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}}
	raw, err := codec.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []KV
	if err := codec.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != "a" || string(out[0].Value) != "1" || out[1].Key != "b" {
		t.Errorf("round trip = %+v", out)
	}
	if err := codec.Unmarshal([]byte("junk"), &out); err == nil {
		t.Error("decoding junk succeeded")
	}
}

// cluster spins up a master and w workers running fn.
func cluster(t *testing.T, w int, fn mw.TaskFunc) (*mw.Master, func()) {
	t.Helper()
	c, err := runtime.NewContainer(runtime.ContainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mnode, err := core.NewNode(core.NodeConfig{Host: "master", Comms: core.ConnectLocal(c.Mux)})
	if err != nil {
		t.Fatal(err)
	}
	master, err := mw.NewMaster(mnode)
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for i := 0; i < w; i++ {
		wn, err := core.NewNode(core.NodeConfig{
			Host:       fmt.Sprintf("w%d", i),
			Comms:      core.ConnectLocal(c.Mux),
			SyncPeriod: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		mw.NewWorker(wn, nil, fn)
		wn.Start()
		stops = append(stops, wn.Stop)
	}
	return master, func() {
		for _, s := range stops {
			s()
		}
		c.Close()
	}
}

func TestScatterGather(t *testing.T) {
	// Each worker uppercases its slice; gather reassembles in order.
	master, cleanup := cluster(t, 3, func(task string, input []byte, shared map[string][]byte) ([]byte, error) {
		return bytes.ToUpper(input), nil
	})
	defer cleanup()

	content := []byte(strings.Repeat("the quick brown fox ", 50))
	const slices = 6
	if err := Scatter(master, "upcase", content, slices); err != nil {
		t.Fatal(err)
	}
	got, err := Gather(master, "upcase", slices, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.ToUpper(content)) {
		t.Fatalf("gathered %d bytes, mismatch", len(got))
	}
}

func TestMapReduceWordCount(t *testing.T) {
	mapFn := func(split []byte, emit func(string, []byte)) error {
		for _, w := range strings.Fields(string(split)) {
			emit(w, []byte("1"))
		}
		return nil
	}
	reduceFn := func(key string, values [][]byte) ([]byte, error) {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return nil, err
			}
			total += n
		}
		return []byte(strconv.Itoa(total)), nil
	}
	master, cleanup := cluster(t, 2, WorkerFunc(mapFn, reduceFn))
	defer cleanup()

	splits := [][]byte{
		[]byte("data dew bit dew"),
		[]byte("dew grid data grid grid"),
		[]byte("bit bit"),
	}
	out, err := RunMapReduce(master, "wc", splits, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"data": "2", "dew": "3", "bit": "3", "grid": "3"}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for k, v := range want {
		if string(out[k]) != v {
			t.Errorf("count[%s] = %s, want %s", k, out[k], v)
		}
	}
}

func TestWorkerFuncRejectsUnknownTask(t *testing.T) {
	fn := WorkerFunc(
		func([]byte, func(string, []byte)) error { return nil },
		func(string, [][]byte) ([]byte, error) { return nil, nil },
	)
	if _, err := fn("bogus:task", nil, nil); err == nil {
		t.Error("unknown task kind accepted")
	}
	if _, err := fn("reduce:x:0", []byte("not gob"), nil); err == nil {
		t.Error("junk reduce input accepted")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	fn := WorkerFunc(
		func([]byte, func(string, []byte)) error { return fmt.Errorf("boom") },
		func(string, [][]byte) ([]byte, error) { return nil, nil },
	)
	if _, err := fn("map:j:0", []byte("x"), nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("map error = %v", err)
	}
}
