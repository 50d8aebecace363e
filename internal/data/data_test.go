package data

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewUIDUnique(t *testing.T) {
	seen := make(map[UID]bool)
	for i := 0; i < 10000; i++ {
		u := NewUID()
		if seen[u] {
			t.Fatalf("duplicate UID %s after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestNewUIDConcurrentUnique(t *testing.T) {
	const workers, per = 8, 2000
	var mu sync.Mutex
	seen := make(map[UID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]UID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, NewUID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, u := range local {
				if seen[u] {
					t.Errorf("duplicate UID %s", u)
				}
				seen[u] = true
			}
		}()
	}
	wg.Wait()
}

func TestUIDValid(t *testing.T) {
	if u := NewUID(); !u.Valid() {
		t.Errorf("NewUID() = %s is not Valid", u)
	}
	for _, bad := range []UID{"", "xyz", "0000-0000-0000-0000", "00000000-00000000-00000000-0000000g"} {
		if bad.Valid() {
			t.Errorf("UID %q unexpectedly Valid", bad)
		}
	}
}

func TestNewFromBytes(t *testing.T) {
	content := []byte("the quick brown fox")
	d := NewFromBytes("fox", content)
	if d.Name != "fox" {
		t.Errorf("Name = %q", d.Name)
	}
	if d.Size != int64(len(content)) {
		t.Errorf("Size = %d, want %d", d.Size, len(content))
	}
	if d.Checksum != ChecksumBytes(content) {
		t.Errorf("Checksum mismatch")
	}
	if !d.Matches(content) {
		t.Errorf("Matches(content) = false")
	}
	if d.Matches([]byte("tampered")) {
		t.Errorf("Matches(tampered) = true")
	}
}

func TestChecksumReaderMatchesBytes(t *testing.T) {
	content := []byte("abcdefgh")
	got, err := ChecksumReader(bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if got != ChecksumBytes(content) {
		t.Errorf("reader %s != bytes %s", got, ChecksumBytes(content))
	}
}

func TestQuickChecksumDistinguishesContent(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return ChecksumBytes(a) == ChecksumBytes(b)
		}
		return ChecksumBytes(a) != ChecksumBytes(b) || len(a) != len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchesRoundTrip(t *testing.T) {
	f := func(name string, content []byte) bool {
		d := NewFromBytes(name, content)
		return d.Matches(content)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithContent(t *testing.T) {
	d := New("slot")
	if d.Size != 0 || d.Checksum != "" {
		t.Fatalf("empty slot has content meta: %+v", d)
	}
	d2 := d.WithContent([]byte("filled"))
	if d2.UID != d.UID {
		t.Errorf("WithContent changed UID")
	}
	if !d2.Matches([]byte("filled")) {
		t.Errorf("WithContent meta wrong")
	}
	if d.Size != 0 {
		t.Errorf("WithContent mutated the original")
	}
}

func TestFlags(t *testing.T) {
	f := FlagCompressed | FlagExecutable
	if !f.Has(FlagCompressed) || !f.Has(FlagExecutable) || f.Has(FlagArchDependent) {
		t.Errorf("flag bits wrong: %s", f)
	}
	if s := f.String(); !strings.Contains(s, "compressed") || !strings.Contains(s, "executable") {
		t.Errorf("String() = %q", s)
	}
	if Flags(0).String() != "none" {
		t.Errorf("zero flags String() = %q", Flags(0).String())
	}
}

func TestLocator(t *testing.T) {
	l := Locator{DataUID: NewUID(), Protocol: "ftp", Host: "h:21", Ref: "path/x", Login: "anon"}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if s := l.String(); !strings.HasPrefix(s, "ftp://anon@h:21/") {
		t.Errorf("String() = %q", s)
	}
	for _, bad := range []Locator{
		{},
		{DataUID: "u"},
		{DataUID: "u", Protocol: "ftp"},
	} {
		if bad.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

func TestDataString(t *testing.T) {
	d := NewFromBytes("n", []byte("c"))
	s := d.String()
	if !strings.Contains(s, "n") || !strings.Contains(s, string(d.UID)) {
		t.Errorf("String() = %q", s)
	}
}

// TestCandidates pins the one merge of catalog and repository locators that
// both a client's lookup and the scheduler's heartbeat answer use.
func TestCandidates(t *testing.T) {
	ftpCopy := Locator{DataUID: "u", Protocol: "ftp", Host: "a:21", Ref: "u"}
	httpCopy := Locator{DataUID: "u", Protocol: "http", Host: "b:80", Ref: "u"}
	repoHTTP := Locator{DataUID: "u", Protocol: "http", Host: "repo:80", Ref: "u"}
	for _, tc := range []struct {
		name     string
		catalog  []Locator
		fallback Locator
		protocol string
		want     []Locator
	}{
		{"any protocol keeps every copy, fallback last", []Locator{ftpCopy, httpCopy}, repoHTTP, "", []Locator{ftpCopy, httpCopy, repoHTTP}},
		{"protocol filter drops other protocols", []Locator{ftpCopy, httpCopy}, repoHTTP, "http", []Locator{httpCopy, repoHTTP}},
		{"fallback already listed is not repeated", []Locator{ftpCopy, repoHTTP}, repoHTTP, "", []Locator{ftpCopy, repoHTTP}},
		{"filtered-out copy does not hide the fallback", []Locator{ftpCopy}, ftpCopy, "http", []Locator{ftpCopy}},
		{"empty catalog yields the fallback", nil, repoHTTP, "http", []Locator{repoHTTP}},
		{"zero fallback adds nothing", []Locator{httpCopy}, Locator{}, "", []Locator{httpCopy}},
		{"nothing at all", nil, Locator{}, "ftp", nil},
	} {
		got := Candidates(append([]Locator(nil), tc.catalog...), tc.fallback, tc.protocol)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
