// Package data defines BitDew's data model: the Data object describing a
// slot in the virtual data space, the Locator giving remote access to a
// concrete copy, and the AUID-style unique identifiers used to reference
// every object in the system (paper §3.3 and §3.4.1).
package data

import (
	"crypto/md5"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// UID is the unique identifier of a BitDew object. The paper references every
// object with an AUID, a variant of the DCE UID; ours is a 128-bit value
// combining a timestamp, a process-wide counter and random bits, rendered in
// hexadecimal groups.
type UID string

var uidCounter atomic.Uint64

// NewUID returns a fresh unique identifier.
func NewUID() UID {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint32(b[8:12], uint32(uidCounter.Add(1)))
	if _, err := rand.Read(b[12:16]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to the
		// counter so UIDs stay unique within the process regardless.
		binary.BigEndian.PutUint32(b[12:16], uint32(uidCounter.Add(1)))
	}
	s := hex.EncodeToString(b[:])
	return UID(s[0:8] + "-" + s[8:16] + "-" + s[16:24] + "-" + s[24:32])
}

// Valid reports whether the UID has the canonical four-group shape.
func (u UID) Valid() bool {
	parts := strings.Split(string(u), "-")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if len(p) != 8 {
			return false
		}
		if _, err := hex.DecodeString(p); err != nil {
			return false
		}
	}
	return true
}

// Flags is an OR-combination of data properties (paper §3.3).
type Flags uint32

const (
	// FlagCompressed marks content stored compressed (e.g. the BLAST
	// genebase archive, unzipped on the worker).
	FlagCompressed Flags = 1 << iota
	// FlagExecutable marks binary application files.
	FlagExecutable
	// FlagArchDependent marks architecture-dependent content.
	FlagArchDependent
)

// Has reports whether all bits of q are set in f.
func (f Flags) Has(q Flags) bool { return f&q == q }

func (f Flags) String() string {
	var parts []string
	if f.Has(FlagCompressed) {
		parts = append(parts, "compressed")
	}
	if f.Has(FlagExecutable) {
		parts = append(parts, "executable")
	}
	if f.Has(FlagArchDependent) {
		parts = append(parts, "arch-dependent")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Data describes one slot of the BitDew data space. A Data may exist before
// any content is attached (an empty slot created by createData and filled
// later by put), in which case Size is zero and Checksum empty.
type Data struct {
	// UID uniquely identifies the slot system-wide.
	UID UID
	// Name is the human label; unlike the UID it need not be unique, and
	// searchData retrieves data by name.
	Name string
	// Checksum is the hex MD5 signature of the content; it doubles as the
	// integrity check for receiver-driven transfers and as the sabotage-
	// detection handle discussed in paper §2.2.
	Checksum string
	// Size is the content length in bytes.
	Size int64
	// Flags carries the OR-combination of content properties.
	Flags Flags
	// Created is the slot creation time.
	Created time.Time
}

// New creates an empty data slot with the given name.
func New(name string) *Data {
	return &Data{UID: NewUID(), Name: name, Created: time.Now()}
}

// NewFromBytes creates a data slot whose meta-information (size, MD5) is
// computed from the given content.
func NewFromBytes(name string, content []byte) *Data {
	d := New(name)
	d.Size = int64(len(content))
	d.Checksum = ChecksumBytes(content)
	return d
}

// WithContent returns a copy of d updated for new content.
func (d Data) WithContent(content []byte) *Data {
	d.Size = int64(len(content))
	d.Checksum = ChecksumBytes(content)
	return &d
}

// Matches reports whether content has the size and checksum recorded in d.
// It is the receiver-side integrity check of the Data Transfer service.
func (d *Data) Matches(content []byte) bool {
	return int64(len(content)) == d.Size && ChecksumBytes(content) == d.Checksum
}

func (d *Data) String() string {
	return fmt.Sprintf("data %s (uid %s, %d bytes, md5 %.8s, flags %s)",
		d.Name, d.UID, d.Size, d.Checksum, d.Flags)
}

// ChecksumBytes returns the hex MD5 of content.
func ChecksumBytes(content []byte) string {
	sum := md5.Sum(content)
	return hex.EncodeToString(sum[:])
}

// NewChecksum returns the hash a datum's checksum is taken with, for
// content that streams past; ChecksumOf renders its state as a Checksum.
func NewChecksum() hash.Hash { return md5.New() }

// ChecksumOf returns the checksum of everything written to h so far.
func ChecksumOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// ChecksumReader returns the hex MD5 of everything readable from r.
func ChecksumReader(r io.Reader) (string, error) {
	h := NewChecksum()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return ChecksumOf(h), nil
}

// Locator tells a node how to remotely access one concrete copy of a datum,
// like a URL: protocol, host endpoint, remote reference (path or hash key)
// and optional credentials (paper §3.4.1).
type Locator struct {
	// DataUID is the datum this locator serves.
	DataUID UID
	// Protocol is the transfer protocol name ("ftp", "http", "bittorrent").
	Protocol string
	// Host is the endpoint, host:port.
	Host string
	// Ref is the remote file identification: a path, file name or hash key
	// depending on the protocol.
	Ref string
	// Login and Password carry protocol credentials when required.
	Login    string
	Password string
}

func (l Locator) String() string {
	host := l.Host
	if l.Login != "" {
		host = l.Login + "@" + host
	}
	return fmt.Sprintf("%s://%s/%s", l.Protocol, host, l.Ref)
}

// Validate reports the first structural problem with the locator, or nil.
func (l Locator) Validate() error {
	if l.DataUID == "" {
		return fmt.Errorf("locator: missing data uid")
	}
	if l.Protocol == "" {
		return fmt.Errorf("locator %s: missing protocol", l.DataUID)
	}
	if l.Host == "" {
		return fmt.Errorf("locator %s: missing host", l.DataUID)
	}
	return nil
}
